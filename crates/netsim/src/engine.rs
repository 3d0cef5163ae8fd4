//! The delivery engine: in-flight messages wait in per-destination-rank
//! shards — each a hashed timing wheel — and a delivery thread hands each
//! to its destination handler once the modeled network delay has elapsed,
//! in *wall-clock* time, so blocking on communication costs real CPU
//! availability (DESIGN.md §2.2, §2.15).
//!
//! Two structural choices keep the hot path fast:
//!
//! * **Sharding by destination rank.** Senders lock only their target's
//!   shard, so concurrent senders to different ranks never serialize on a
//!   shared lock (the pre-§2.15 engine funneled every send through one
//!   mutex-protected global heap). Contention that does happen is counted
//!   in [`NetStats::shard_contention`].
//! * **Hashed timing wheel per shard.** Due times hash into 256 slots of
//!   ~16 µs; insert and pop of due messages are O(1)-ish instead of
//!   O(log n) heap churn, with a `BTreeMap` overflow for dues beyond the
//!   ~4 ms horizon. An `AtomicU64` per shard publishes its exact earliest
//!   due so the delivery thread picks the next shard without locking any.
//!
//! The delivery thread runs with 1 ns timer slack
//! ([`clock::precise_timers`]) and sleeps on a condvar toward each due
//! time, waking a short **spin window** early and spinning the rest. With
//! the default 50 µs slack a 40 µs timed wait overshoots by about 57 µs at
//! the median — longer than the modeled latency itself; with 1 ns slack it
//! overshoots by 6–7 µs (8–13 µs at p90). The window is not a constant: the
//! thread measures how far each timed-out wait overshoots its target and
//! keeps the window at a capped moving average of that (`SpinWindow`),
//! 6–12 µs on a 2-core x86-64 Linux host, so it spins for the wake-up
//! latency it actually sees instead of for the whole flight of every
//! message.
//!
//! All engine timekeeping runs on the shared trace clock
//! ([`hiper_trace::clock`]): due times are nanosecond offsets from the same
//! epoch the tracer stamps events with, so an exported timeline shows every
//! `NetDeliver` landing exactly `NetSend + modeled delay` later — no skew
//! between scheduler tracks and network tracks.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use hiper_trace::clock;
use hiper_trace::EventKind;
use parking_lot::{Condvar, Mutex, RwLock};

use crate::message::{Message, Rank};

/// Packs a (src, dst) pair into one trace-event payload word.
pub(crate) fn link_word(src: Rank, dst: Rank) -> u64 {
    ((src as u64) << 32) | dst as u64
}

/// Globally unique message-id allocator for `MsgSend`/`MsgDeliver` causal
/// edges (shared across engines so ids never collide within one trace).
static NEXT_MSG_ID: AtomicU64 = AtomicU64::new(1);

/// Allocates a fresh causal-edge message id. The reliable layer uses this
/// to emit per-logical-message send/deliver pairs when one jumbo frame
/// carries several coalesced messages.
pub(crate) fn next_msg_id() -> u64 {
    NEXT_MSG_ID.fetch_add(1, Ordering::Relaxed)
}

/// Cached handle to the in-flight-messages gauge (queue depth across all
/// delivery shards; the peak value is the high-water mark of the run).
fn in_flight_gauge() -> &'static hiper_metrics::Gauge {
    static G: std::sync::OnceLock<&'static hiper_metrics::Gauge> = std::sync::OnceLock::new();
    G.get_or_init(|| hiper_metrics::gauge("hiper_netsim_in_flight"))
}

/// Network model parameters.
#[derive(Debug, Clone, Copy)]
pub struct NetConfig {
    /// One-way latency between ranks on distinct nodes.
    pub latency: Duration,
    /// Link bandwidth in bytes/second (applied to `Message::wire_bytes`).
    pub bandwidth: f64,
    /// Latency for a rank sending to itself (loopback through the library).
    pub self_latency: Duration,
    /// Ranks per simulated node: ranks `r` and `s` with
    /// `r / ranks_per_node == s / ranks_per_node` communicate at
    /// `intra_latency` instead of `latency` (shared-memory transport, the
    /// reason flat-per-core SHMEM is cheap at small scale).
    pub ranks_per_node: usize,
    /// One-way latency between distinct ranks on the same node.
    pub intra_latency: Duration,
}

impl Default for NetConfig {
    fn default() -> Self {
        // Roughly Cray-Aries-flavored numbers, scaled up so they dominate
        // scheduler noise on the simulation host: ~40us latency, 4 GB/s.
        NetConfig {
            latency: Duration::from_micros(40),
            bandwidth: 4.0e9,
            self_latency: Duration::from_micros(2),
            ranks_per_node: 1,
            intra_latency: Duration::from_micros(3),
        }
    }
}

impl NetConfig {
    /// An idealized instant network (useful in unit tests where timing is
    /// irrelevant).
    pub fn instant() -> NetConfig {
        NetConfig {
            latency: Duration::ZERO,
            bandwidth: f64::INFINITY,
            self_latency: Duration::ZERO,
            ranks_per_node: 1,
            intra_latency: Duration::ZERO,
        }
    }

    /// The modeled in-flight delay for a message.
    pub fn delay(&self, src: Rank, dst: Rank, wire_bytes: usize) -> Duration {
        let rpn = self.ranks_per_node.max(1);
        let base = if src == dst {
            self.self_latency
        } else if src / rpn == dst / rpn {
            self.intra_latency
        } else {
            self.latency
        };
        if self.bandwidth.is_finite() && self.bandwidth > 0.0 {
            base + Duration::from_secs_f64(wire_bytes as f64 / self.bandwidth)
        } else {
            base
        }
    }
}

/// Traffic counters.
#[derive(Debug, Default)]
pub struct NetStats {
    pub messages: AtomicU64,
    pub bytes: AtomicU64,
    /// Messages discarded: fault injection (random drops, partition/kill
    /// windows) plus messages lost to panicking handlers.
    pub dropped: AtomicU64,
    /// Extra copies injected by fault duplication.
    pub duplicated: AtomicU64,
    /// Delivery handlers that panicked (each also counts as one `dropped`).
    pub handler_panics: AtomicU64,
    /// Sends that found their destination shard's lock already held and
    /// had to block (contended delivery-shard acquisitions).
    pub shard_contention: AtomicU64,
}

/// Plain-data snapshot of [`NetStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetStatsSnapshot {
    pub messages: u64,
    pub bytes: u64,
    pub dropped: u64,
    pub duplicated: u64,
    pub handler_panics: u64,
    pub shard_contention: u64,
}

impl NetStats {
    /// Point-in-time copy.
    pub fn snapshot(&self) -> NetStatsSnapshot {
        NetStatsSnapshot {
            messages: self.messages.load(Ordering::Relaxed),
            bytes: self.bytes.load(Ordering::Relaxed),
            dropped: self.dropped.load(Ordering::Relaxed),
            duplicated: self.duplicated.load(Ordering::Relaxed),
            handler_panics: self.handler_panics.load(Ordering::Relaxed),
            shard_contention: self.shard_contention.load(Ordering::Relaxed),
        }
    }
}

impl std::fmt::Display for NetStatsSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "messages={} bytes={} dropped={} duplicated={} handler_panics={} shard_contention={}",
            self.messages,
            self.bytes,
            self.dropped,
            self.duplicated,
            self.handler_panics,
            self.shard_contention
        )
    }
}

/// Handler invoked (on the engine thread) when a message arrives at a rank.
pub type Handler = Box<dyn Fn(Message) + Send + Sync>;

/// Callback run once when the engine stops. Reliable endpoints register
/// one to wake their retry/flush threads immediately instead of waiting
/// out a full backoff tick against a dead wire.
pub type StopHook = Box<dyn Fn() + Send + Sync>;

struct InFlight {
    /// Delivery deadline, ns on the shared trace clock.
    due: u64,
    /// Global send order tiebreaker (FIFO among equal dues).
    seq: u64,
    /// Causal-edge message id (shared by fault-injected duplicate copies:
    /// both delivers refer to the same logical `MsgSend`). 0 = untraced.
    msg_id: u64,
    msg: Message,
}

/// Slots per wheel; with [`SLOT_NS`] this spans a ~4.2 ms horizon, well
/// past every modeled latency + jitter in the test grids. Longer dues go
/// to the overflow map and migrate in as the cursor advances.
const WHEEL_SLOTS: usize = 256;
/// Slot granularity in ns (2^14 ≈ 16.4 µs). Granularity does not bound
/// delivery precision: items are popped by their exact due time, the slot
/// only bounds how much of the structure a pop has to look at.
const SLOT_NS: u64 = 1 << 14;

/// A hashed timing wheel: due times hash into fixed-width slots, a cursor
/// chases the clock, and dues beyond the horizon wait in a sorted overflow
/// map. Pops return matured items in exact `(due, seq)` order — the
/// per-link FIFO guarantee needs pops to respect the monotone per-link
/// dues [`DeliveryEngine::send`] establishes.
struct TimingWheel {
    slots: Vec<Vec<InFlight>>,
    /// Items whose due lies beyond the wheel horizon, keyed `(due, seq)`.
    overflow: BTreeMap<(u64, u64), InFlight>,
    /// Absolute index (due / SLOT_NS) of the next un-drained slot.
    cursor: u64,
    /// Items currently in `slots`.
    wheel_len: usize,
    /// Items total (slots + overflow).
    len: usize,
}

impl TimingWheel {
    fn new(now: u64) -> TimingWheel {
        TimingWheel {
            slots: (0..WHEEL_SLOTS).map(|_| Vec::new()).collect(),
            overflow: BTreeMap::new(),
            cursor: now / SLOT_NS,
            wheel_len: 0,
            len: 0,
        }
    }

    fn insert(&mut self, entry: InFlight) {
        self.len += 1;
        let slot = entry.due / SLOT_NS;
        if slot >= self.cursor + WHEEL_SLOTS as u64 {
            self.overflow.insert((entry.due, entry.seq), entry);
        } else {
            // Past-due entries (slot < cursor) land in the cursor slot so
            // the next pop finds them immediately.
            let idx = (slot.max(self.cursor) % WHEEL_SLOTS as u64) as usize;
            self.slots[idx].push(entry);
            self.wheel_len += 1;
        }
    }

    /// Migrates overflow items that entered the horizon into the wheel.
    fn refill(&mut self) {
        let horizon = (self.cursor + WHEEL_SLOTS as u64) * SLOT_NS;
        while let Some((&(due, _), _)) = self.overflow.iter().next() {
            if due >= horizon {
                break;
            }
            let key = *self.overflow.keys().next().unwrap();
            let entry = self.overflow.remove(&key).unwrap();
            let idx = ((entry.due / SLOT_NS).max(self.cursor) % WHEEL_SLOTS as u64) as usize;
            self.slots[idx].push(entry);
            self.wheel_len += 1;
        }
    }

    /// Pops the matured item with the smallest `(due, seq)`, or `None`
    /// when nothing is due at `now`. Never returns an item early.
    fn pop_due(&mut self, now: u64) -> Option<InFlight> {
        loop {
            if self.wheel_len == 0 {
                // Fast-forward an empty wheel (idle gaps must not cost a
                // slot-by-slot walk) and pull newly in-horizon overflow.
                let target = now / SLOT_NS;
                if target > self.cursor {
                    self.cursor = target;
                }
                self.refill();
                if self.wheel_len == 0 {
                    return None;
                }
            }
            let slot_start = self.cursor * SLOT_NS;
            if slot_start > now {
                return None;
            }
            let idx = (self.cursor % WHEEL_SLOTS as u64) as usize;
            // Matured minimum within the current slot. Entries from future
            // wheel turns share the slot and are skipped by the due check.
            let mut best: Option<usize> = None;
            for (i, e) in self.slots[idx].iter().enumerate() {
                if e.due <= now {
                    let better = match best {
                        Some(b) => {
                            (e.due, e.seq) < (self.slots[idx][b].due, self.slots[idx][b].seq)
                        }
                        None => true,
                    };
                    if better {
                        best = Some(i);
                    }
                }
            }
            if let Some(i) = best {
                self.wheel_len -= 1;
                self.len -= 1;
                return Some(self.slots[idx].swap_remove(i));
            }
            if slot_start + SLOT_NS <= now {
                // Slot fully in the past and nothing matured: whatever
                // remains belongs to future turns — advance.
                self.cursor += 1;
                self.refill();
                continue;
            }
            return None;
        }
    }

    /// Exact earliest due across wheel and overflow (`u64::MAX` if empty).
    fn earliest(&self) -> u64 {
        let mut min = self
            .overflow
            .keys()
            .next()
            .map_or(u64::MAX, |&(due, _)| due);
        if self.wheel_len > 0 {
            for slot in &self.slots {
                for e in slot {
                    min = min.min(e.due);
                }
            }
        }
        min
    }
}

/// Mutable per-destination delivery state.
struct ShardState {
    wheel: TimingWheel,
    /// Latest delivery time scheduled per source rank onto this shard's
    /// destination (trace-clock ns). A message may never be delivered
    /// before an earlier message on the same link, even if it is much
    /// smaller — the per-pair FIFO guarantee communication modules (SHMEM
    /// put ordering, MPI non-overtaking) depend on.
    last_due: HashMap<Rank, u64>,
    /// Per-source send counter: the replayable "message index" that
    /// [`FaultPlan::decide`](crate::FaultPlan::decide) keys its fault
    /// schedule on.
    link_seq: HashMap<Rank, u64>,
}

/// One destination rank's slice of the delivery queue.
struct Shard {
    state: Mutex<ShardState>,
    /// Exact earliest due among this shard's queued entries (`u64::MAX`
    /// when empty): `fetch_min`ed by senders, recomputed after pops, read
    /// lock-free by the delivery thread to pick the next shard.
    earliest: AtomicU64,
}

/// The delivery engine shared by all ranks of one cluster.
pub struct DeliveryEngine {
    config: NetConfig,
    ranks: usize,
    /// Armed fault plan, if any (`None` = perfectly reliable wire).
    faults: Option<crate::FaultPlan>,
    /// Trace-clock ns at engine start; fault windows are offsets from here.
    epoch_ns: u64,
    /// Per-destination-rank delivery shards.
    shards: Vec<Shard>,
    /// Per-(dst, channel) handlers; index = dst * 256 + channel.
    /// Registration is rare, delivery reads are constant — an RwLock keeps
    /// the read side off the senders' shard locks entirely.
    handlers: RwLock<Vec<Option<Arc<Handler>>>>,
    /// Delivery-thread sleep coordination: the thread publishes the due
    /// time it sleeps toward in `sleep_target` (0 = awake, `u64::MAX` =
    /// idle wait); a sender whose new due undercuts it notifies `cond`
    /// under `sleep_mx`.
    sleep_mx: Mutex<()>,
    cond: Condvar,
    sleep_target: AtomicU64,
    seq: AtomicU64,
    in_flight: AtomicU64,
    shutdown: AtomicBool,
    /// Per-rank supervised-down flags ([`set_rank_down`]); traffic to or
    /// from a down rank is dropped (cause 2), independent of any
    /// time-windowed [`FaultPlan`] kill.
    ///
    /// [`set_rank_down`]: DeliveryEngine::set_rank_down
    down: Vec<AtomicBool>,
    /// Like `down`, but *silent*: no trace events, and messages dropped in
    /// the window are expected to be retransmitted by a reliable layer.
    /// [`pause_rank`] uses this to carve an atomic cut for checkpoint
    /// snapshots (no handler can mutate the rank's state while paused).
    ///
    /// [`pause_rank`]: DeliveryEngine::pause_rank
    paused: Vec<AtomicBool>,
    /// `dst + 1` while a delivery handler is running (0 = idle):
    /// `set_rank_down` waits on it so that once the call returns, no
    /// handler for the dead rank is still mid-delivery.
    delivering: AtomicU64,
    stop_hooks: Mutex<Vec<StopHook>>,
    pub stats: NetStats,
    thread: Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl DeliveryEngine {
    /// Creates an engine for `ranks` ranks and starts its delivery thread.
    pub fn start(ranks: usize, config: NetConfig) -> Arc<DeliveryEngine> {
        Self::start_with_faults(ranks, config, None)
    }

    /// Creates an engine with an armed fault plan. An inactive plan
    /// ([`FaultPlan::is_active`](crate::FaultPlan::is_active) false) behaves
    /// exactly like `start`.
    pub fn start_with_faults(
        ranks: usize,
        config: NetConfig,
        faults: Option<crate::FaultPlan>,
    ) -> Arc<DeliveryEngine> {
        let faults = faults.filter(|p| p.is_active());
        let now = clock::now_ns();
        let engine = Arc::new(DeliveryEngine {
            config,
            ranks,
            faults,
            epoch_ns: now,
            shards: (0..ranks)
                .map(|_| Shard {
                    state: Mutex::new(ShardState {
                        wheel: TimingWheel::new(now),
                        last_due: HashMap::new(),
                        link_seq: HashMap::new(),
                    }),
                    earliest: AtomicU64::new(u64::MAX),
                })
                .collect(),
            handlers: RwLock::new(vec![None; ranks * 256]),
            sleep_mx: Mutex::new(()),
            cond: Condvar::new(),
            sleep_target: AtomicU64::new(0),
            seq: AtomicU64::new(0),
            in_flight: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
            down: (0..ranks).map(|_| AtomicBool::new(false)).collect(),
            paused: (0..ranks).map(|_| AtomicBool::new(false)).collect(),
            delivering: AtomicU64::new(0),
            stop_hooks: Mutex::new(Vec::new()),
            stats: NetStats::default(),
            thread: Mutex::new(None),
        });
        let engine2 = Arc::clone(&engine);
        let handle = std::thread::Builder::new()
            .name("hiper-netsim".into())
            .spawn(move || engine2.run())
            .expect("failed to spawn delivery engine");
        *engine.thread.lock() = Some(handle);
        engine
    }

    /// Number of ranks.
    pub fn ranks(&self) -> usize {
        self.ranks
    }

    /// The armed fault plan, if any. Reliable transports consult this to
    /// decide whether to arm acking/retry (pass-through on `None`).
    pub fn fault_plan(&self) -> Option<&crate::FaultPlan> {
        self.faults.as_ref()
    }

    /// Registers the handler for (`rank`, `channel`). Replaces any previous
    /// handler.
    pub fn register_handler(&self, rank: Rank, channel: crate::Channel, handler: Handler) {
        self.handlers.write()[rank * 256 + channel.0 as usize] = Some(Arc::new(handler));
    }

    /// Registers a callback to run when [`stop`](DeliveryEngine::stop)
    /// fires. Reliable endpoints hang their retry-thread condvar wakeup
    /// here so a stopped cluster kills its retry/flush threads immediately
    /// rather than after their next backoff tick.
    pub fn on_stop(&self, f: impl Fn() + Send + Sync + 'static) {
        self.stop_hooks.lock().push(Box::new(f));
    }

    /// Drops every registered delivery handler. Only valid once the engine
    /// is stopped: handler closures commonly capture the endpoint that
    /// registered them (endpoint → transport → engine → handler → endpoint
    /// is a reference cycle), so teardown must break the table or every
    /// endpoint of the run leaks for the life of the process.
    pub fn clear_handlers(&self) {
        debug_assert!(self.is_stopped(), "clear_handlers on a live engine");
        let mut table = self.handlers.write();
        for slot in table.iter_mut() {
            *slot = None;
        }
    }

    /// True while `rank` is marked down by [`set_rank_down`].
    ///
    /// [`set_rank_down`]: DeliveryEngine::set_rank_down
    pub fn rank_down(&self, rank: Rank) -> bool {
        self.down[rank].load(Ordering::Acquire)
    }

    /// True when traffic touching `rank` must be dropped (down or paused).
    #[inline]
    fn severed(&self, rank: Rank) -> bool {
        self.down[rank].load(Ordering::SeqCst) || self.paused[rank].load(Ordering::SeqCst)
    }

    /// Silently fences `rank` off the network: returns only when no
    /// delivery handler for the rank is mid-flight, and until
    /// [`unpause_rank`] every message to or from it is dropped. Unlike
    /// [`set_rank_down`] this emits no trace events — it exists so a
    /// checkpoint can capture transport watermarks and application state
    /// as one consistent cut; dropped frames are retransmitted by the
    /// reliable layer afterwards. Keep the window short.
    ///
    /// [`unpause_rank`]: DeliveryEngine::unpause_rank
    /// [`set_rank_down`]: DeliveryEngine::set_rank_down
    pub fn pause_rank(&self, rank: Rank) {
        if !self.paused[rank].swap(true, Ordering::SeqCst) {
            while self.delivering.load(Ordering::SeqCst) == rank as u64 + 1 {
                std::hint::spin_loop();
            }
        }
    }

    /// Lifts a [`pause_rank`](DeliveryEngine::pause_rank) fence.
    pub fn unpause_rank(&self, rank: Rank) {
        self.paused[rank].store(false, Ordering::SeqCst);
    }

    /// Marks `rank` as down (supervised kill) or back up (recovery).
    /// While down, every message to or from the rank is dropped (cause 2),
    /// exactly like a [`FaultPlan`] kill window — but driven by the
    /// recovery harness at a deterministic point in the run rather than a
    /// wall-clock offset. On `down = true` the call does not return until
    /// any in-flight delivery to the rank has finished, so the caller can
    /// immediately snapshot or roll back the rank's state without racing a
    /// handler. Transitions emit `RankDown`/`RankRestored` trace events.
    ///
    /// [`FaultPlan`]: crate::FaultPlan
    pub fn set_rank_down(&self, rank: Rank, down: bool) {
        self.set_rank_state(rank, down, 0);
    }

    /// [`set_rank_down`]`(rank, false)`, but the `RankRestored` trace event
    /// carries the rank's renegotiated transport epoch so a trace viewer
    /// (and `trace_check`) can follow incarnations.
    ///
    /// [`set_rank_down`]: DeliveryEngine::set_rank_down
    pub fn set_rank_restored(&self, rank: Rank, epoch: u32) {
        self.set_rank_state(rank, false, epoch);
    }

    fn set_rank_state(&self, rank: Rank, down: bool, epoch: u32) {
        let was = self.down[rank].swap(down, Ordering::SeqCst);
        if was == down {
            return;
        }
        if down {
            // Wait out a handler currently delivering to this rank: after
            // this spin, no pre-kill message can mutate its state. SeqCst
            // pairs with the delivery-side marker store + down re-check.
            while self.delivering.load(Ordering::SeqCst) == rank as u64 + 1 {
                std::hint::spin_loop();
            }
        }
        if hiper_trace::enabled() {
            hiper_trace::emit_at(
                clock::now_ns(),
                if down {
                    EventKind::RankDown
                } else {
                    EventKind::RankRestored
                },
                rank as u64,
                epoch as u64,
                0,
            );
        }
    }

    /// Injects a message; it will be delivered after the modeled delay.
    pub fn send(&self, msg: Message) {
        assert!(msg.dst < self.ranks, "destination rank out of range");
        let delay = self.config.delay(msg.src, msg.dst, msg.wire_bytes());
        self.stats.messages.fetch_add(1, Ordering::Relaxed);
        self.stats
            .bytes
            .fetch_add(msg.wire_bytes() as u64, Ordering::Relaxed);
        let delay_ns = delay.as_nanos() as u64;
        // One clock read serves the trace emissions and the due-time
        // computation, so the exported timeline satisfies
        // `deliver ts = send ts + modeled delay (+ jitter/FIFO clamp)`
        // exactly, and the `MsgSend` causal edge shares the `NetSend`
        // timestamp (trace_check pairs them on it).
        let now = clock::now_ns();
        let traced = hiper_trace::enabled();
        let msg_id = if traced { next_msg_id() } else { 0 };
        if traced {
            hiper_trace::emit_at(
                now,
                EventKind::NetSend,
                link_word(msg.src, msg.dst),
                msg.wire_bytes() as u64,
                delay_ns,
            );
            hiper_trace::emit_at(
                now,
                EventKind::MsgSend,
                msg.span,
                link_word(msg.src, msg.dst),
                msg_id,
            );
        }
        // Supervised rank-down severing: independent of (and checked before)
        // the wall-clock fault plan, and deliberately not consuming a link
        // sequence number so the pure fault schedule stays aligned.
        if self.severed(msg.src) || self.severed(msg.dst) {
            self.drop_msg(&msg, 2);
            return;
        }
        let src = msg.src;
        let shard = &self.shards[msg.dst];
        let mut queued = 1u64;
        let earliest = {
            let mut st = match shard.state.try_lock() {
                Some(guard) => guard,
                None => {
                    self.stats.shard_contention.fetch_add(1, Ordering::Relaxed);
                    shard.state.lock()
                }
            };

            // Fault injection: the fate of the link_seq-th message on this
            // link is a pure function of the plan seed, so chaos runs
            // replay exactly.
            let mut decision = crate::FaultDecision::default();
            if let Some(plan) = &self.faults {
                let link_seq = {
                    let c = st.link_seq.entry(src).or_insert(0);
                    let s = *c;
                    *c += 1;
                    s
                };
                if plan.link_down(msg.src, msg.dst, now.saturating_sub(self.epoch_ns)) {
                    drop(st);
                    self.drop_msg(&msg, 2);
                    return;
                }
                decision = plan.decide(msg.src, msg.dst, link_seq);
                if decision.drop {
                    drop(st);
                    self.drop_msg(&msg, 1);
                    return;
                }
            }

            let computed = now + delay_ns + decision.jitter_ns;
            // Per-link FIFO clamp — unless the fault decision lets this
            // message overtake (a reliable layer above must then
            // resequence).
            let prev = st.last_due.get(&src).copied().unwrap_or(0);
            let due = if prev > computed && !decision.reorder {
                prev
            } else {
                computed
            };
            st.last_due.insert(src, due.max(prev));
            let mut earliest = due;
            if decision.duplicate {
                self.stats.duplicated.fetch_add(1, Ordering::Relaxed);
                if hiper_trace::enabled() {
                    hiper_trace::emit(
                        EventKind::NetDup,
                        link_word(msg.src, msg.dst),
                        msg.wire_bytes() as u64,
                        0,
                    );
                }
                let dup_due = now + delay_ns + decision.dup_jitter_ns;
                earliest = earliest.min(dup_due);
                queued += 1;
                st.wheel.insert(InFlight {
                    due: dup_due,
                    seq: self.seq.fetch_add(1, Ordering::Relaxed),
                    msg_id,
                    msg: msg.clone(),
                });
            }
            st.wheel.insert(InFlight {
                due,
                seq: self.seq.fetch_add(1, Ordering::Relaxed),
                msg_id,
                msg,
            });
            shard.earliest.fetch_min(earliest, Ordering::SeqCst);
            // Counted under the shard lock: the delivery thread decrements
            // under the same lock, so the gauge can never underflow even
            // if the pop races ahead of this send's unlock.
            self.in_flight.fetch_add(queued, Ordering::Relaxed);
            earliest
        };
        if hiper_metrics::enabled() {
            in_flight_gauge().set(self.in_flight.load(Ordering::Relaxed) as i64);
        }
        // Wake the delivery thread only when this due undercuts the
        // deadline it is sleeping toward (0 = awake: no wake needed).
        // Notifying under `sleep_mx` closes the race with a thread that
        // has published its target but not yet parked.
        if earliest < self.sleep_target.load(Ordering::SeqCst) {
            let _g = self.sleep_mx.lock();
            self.cond.notify_all();
        }
    }

    /// Counts and traces a fault-injected loss (`cause`: 1 = random drop,
    /// 2 = partition/kill window, 3 = handler panic).
    fn drop_msg(&self, msg: &Message, cause: u64) {
        self.stats.dropped.fetch_add(1, Ordering::Relaxed);
        if hiper_trace::enabled() {
            hiper_trace::emit(
                EventKind::NetDrop,
                link_word(msg.src, msg.dst),
                msg.wire_bytes() as u64,
                cause,
            );
        }
    }

    /// Stops the engine, delivering nothing further, runs the stop hooks,
    /// and joins its thread.
    pub fn stop(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        {
            let _g = self.sleep_mx.lock();
            self.cond.notify_all();
        }
        let hooks = std::mem::take(&mut *self.stop_hooks.lock());
        for hook in &hooks {
            hook();
        }
        if let Some(handle) = self.thread.lock().take() {
            let _ = handle.join();
        }
    }

    /// True once [`stop`](DeliveryEngine::stop) ran: nothing will ever be
    /// delivered again. Reliable-transport retry threads poll this to die
    /// with the cluster instead of burning their full retry budgets
    /// against a wire that no longer exists.
    pub fn is_stopped(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Messages still in flight (diagnostics).
    pub fn in_flight(&self) -> usize {
        self.in_flight.load(Ordering::Relaxed) as usize
    }

    /// Smallest published due across all shards, and its shard index.
    fn min_earliest(&self) -> (u64, usize) {
        let mut best = u64::MAX;
        let mut at = usize::MAX;
        for (i, shard) in self.shards.iter().enumerate() {
            let e = shard.earliest.load(Ordering::SeqCst);
            if e < best {
                best = e;
                at = i;
            }
        }
        (best, at)
    }

    /// Parks the delivery thread until `target` (or a nominal idle tick
    /// when `None`), unless a closer due appears between the last scan and
    /// the park — the publish-then-reverify handshake with senders.
    /// Returns true only when a wait toward `target` ran to its timeout,
    /// i.e. the wake-up time measures the OS overshoot, not a sender.
    fn sleep_until(&self, target: Option<u64>) -> bool {
        let mut g = self.sleep_mx.lock();
        let t = target.unwrap_or(u64::MAX);
        self.sleep_target.store(t, Ordering::SeqCst);
        let (min, _) = self.min_earliest();
        if self.shutdown.load(Ordering::SeqCst) || min < t {
            self.sleep_target.store(0, Ordering::SeqCst);
            return false;
        }
        let timed_out = match target {
            Some(t) => {
                let now = clock::now_ns();
                t > now
                    && self
                        .cond
                        .wait_for(&mut g, Duration::from_nanos(t - now))
                        .timed_out()
            }
            None => {
                self.cond.wait_for(&mut g, Duration::from_millis(50));
                false
            }
        };
        self.sleep_target.store(0, Ordering::SeqCst);
        timed_out
    }

    fn run(self: &Arc<Self>) {
        clock::precise_timers();
        let mut window = SpinWindow::new();
        loop {
            if self.shutdown.load(Ordering::SeqCst) {
                return;
            }
            let (mut best_due, mut best_shard) = self.min_earliest();
            if best_due == u64::MAX {
                self.sleep_until(None);
                continue;
            }
            let now = clock::now_ns();
            if best_due > now {
                if best_due - now > window.ns() {
                    // Far out: condvar-sleep to within the spin window
                    // (the wait's wake-up latency lands inside it), then
                    // spin. A wait that ran to its timeout measures that
                    // latency; one a sender cut short measures nothing.
                    let target = best_due - window.ns();
                    if self.sleep_until(Some(target)) {
                        window.observe(clock::now_ns().saturating_sub(target));
                    }
                    continue;
                }
                // Near-due: spin on the shared clock. A condvar wait here
                // would overshoot by the wake-up latency the window
                // measured.
                let mut spins = 0u32;
                loop {
                    if self.shutdown.load(Ordering::SeqCst) {
                        return;
                    }
                    if clock::now_ns() >= best_due {
                        break;
                    }
                    std::hint::spin_loop();
                    spins = spins.wrapping_add(1);
                    if spins & 31 == 0 {
                        // Pick up a newly sent, earlier-due message.
                        let (d, s) = self.min_earliest();
                        if d < best_due {
                            best_due = d;
                            best_shard = s;
                        }
                    }
                }
            }
            // Pop the matured head of the chosen shard and republish its
            // exact earliest.
            let now = clock::now_ns();
            let popped = {
                let shard = &self.shards[best_shard];
                let mut st = shard.state.lock();
                let entry = st.wheel.pop_due(now);
                shard.earliest.store(st.wheel.earliest(), Ordering::SeqCst);
                if entry.is_some() {
                    self.in_flight.fetch_sub(1, Ordering::Relaxed);
                }
                entry
            };
            let Some(entry) = popped else { continue };
            if hiper_metrics::enabled() {
                in_flight_gauge().set(self.in_flight.load(Ordering::Relaxed) as i64);
            }
            let InFlight {
                due,
                mut msg,
                msg_id,
                ..
            } = entry;
            let handler = {
                let table = self.handlers.read();
                table[msg.dst * 256 + msg.channel.0 as usize].clone()
            };
            // Run the handler outside all locks so handlers may re-enter
            // send().
            match handler {
                Some(h) => {
                    // Publish "delivering to dst" before re-checking the
                    // down flags: paired SeqCst accesses in
                    // `set_rank_down` guarantee that either this thread
                    // sees the kill, or the killer waits for the
                    // handler — a queued message can never mutate a
                    // rank's state after `set_rank_down` returned.
                    self.delivering.store(msg.dst as u64 + 1, Ordering::SeqCst);
                    if self.severed(msg.src) || self.severed(msg.dst) {
                        self.delivering.store(0, Ordering::SeqCst);
                        self.drop_msg(&msg, 2);
                        continue;
                    }
                    if hiper_trace::enabled() {
                        // Stamped at the modeled due time (the engine
                        // drains at due + scheduling lateness; the
                        // *timeline* delivery is `due`). The exporter
                        // re-sorts globally, so the out-of-emit-order
                        // timestamp is harmless.
                        hiper_trace::emit_at(
                            due,
                            EventKind::NetDeliver,
                            link_word(msg.src, msg.dst),
                            msg.wire_bytes() as u64,
                            0,
                        );
                        hiper_trace::emit_at(
                            due,
                            EventKind::MsgDeliver,
                            msg.span,
                            link_word(msg.src, msg.dst),
                            msg_id,
                        );
                    }
                    // A panicking handler must not kill the delivery
                    // engine: the whole cluster would silently hang.
                    let info = (msg.src, msg.dst, msg.channel, msg.tag, msg.wire_bytes());
                    // Run the handler under the sender's span so any
                    // send or task spawn it performs (echo replies,
                    // SHMEM get/amo replies, acks) inherits the remote
                    // causal parent.
                    let span = msg.span;
                    let prev_span = hiper_trace::set_current_task(span);
                    // Stamp the modeled deadline so layered protocols can
                    // timestamp logical sub-messages they unpack.
                    msg.due_ns = due;
                    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| h(msg)));
                    // Clear the marker as soon as the handler is out of
                    // flight: pause_rank/set_rank_down spin on it, and a
                    // stale `dst + 1` from the *last* delivery would spin
                    // them forever once the queue drains idle.
                    self.delivering.store(0, Ordering::SeqCst);
                    hiper_trace::set_current_task(prev_span);
                    if result.is_err() {
                        let (src, dst, channel, tag, wire) = info;
                        self.stats.handler_panics.fetch_add(1, Ordering::Relaxed);
                        self.stats.dropped.fetch_add(1, Ordering::Relaxed);
                        if hiper_trace::enabled() {
                            hiper_trace::emit(
                                EventKind::NetDrop,
                                link_word(src, dst),
                                wire as u64,
                                3,
                            );
                        }
                        eprintln!(
                            "[hiper-netsim] delivery handler panicked; message dropped \
                             (src={} dst={} channel={} tag={:#x})",
                            src, dst, channel.0, tag
                        );
                    }
                }
                None => {
                    // No handler yet: requeue briefly. This covers the
                    // startup race where rank 0 sends before rank N has
                    // registered its module handlers.
                    let due = clock::now_ns() + 200_000;
                    let shard = &self.shards[msg.dst];
                    let mut st = shard.state.lock();
                    st.wheel.insert(InFlight {
                        due,
                        seq: self.seq.fetch_add(1, Ordering::Relaxed),
                        msg_id,
                        msg,
                    });
                    shard.earliest.fetch_min(due, Ordering::SeqCst);
                    self.in_flight.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
    }
}

/// The delivery thread's spin window: how long before a due time it stops
/// sleeping and starts spinning. It tracks the overshoot of the thread's
/// own timed waits, so the spin covers the wake-up latency and no more.
///
/// Each sample is capped at twice the current window before it enters the
/// moving average: a preemption outlier (a 1 ms wake-up) then moves the
/// window by at most 1/8 of itself, where an uncapped average drifts up
/// and spins for the outliers on every delivery.
#[derive(Debug)]
struct SpinWindow {
    ns: u64,
}

impl SpinWindow {
    const START_NS: u64 = 20_000;
    const MIN_NS: u64 = 2_000;
    const MAX_NS: u64 = 120_000;

    fn new() -> SpinWindow {
        SpinWindow { ns: Self::START_NS }
    }

    fn ns(&self) -> u64 {
        self.ns
    }

    /// Folds in one timed-out wait's overshoot past its wake-up target and
    /// returns the new window: `(7 * window + sample) / 8`, where `sample`
    /// is the overshoot capped at `2 * window` and clamped to
    /// `MIN_NS..=MAX_NS`.
    fn observe(&mut self, overshoot_ns: u64) -> u64 {
        let sample = overshoot_ns
            .min(2 * self.ns)
            .clamp(Self::MIN_NS, Self::MAX_NS);
        self.ns = (7 * self.ns + sample) / 8;
        self.ns
    }
}

impl std::fmt::Debug for DeliveryEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DeliveryEngine")
            .field("ranks", &self.ranks)
            .field("in_flight", &self.in_flight())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::Channel;
    use bytes::Bytes;
    use std::time::Instant;

    fn msg(src: Rank, dst: Rank, tag: u64, len: usize) -> Message {
        Message::new(src, dst, Channel::APP, tag, Bytes::from(vec![0u8; len]))
    }

    #[test]
    fn delay_model() {
        let cfg = NetConfig {
            latency: Duration::from_micros(100),
            bandwidth: 1e6, // 1 MB/s
            self_latency: Duration::from_micros(1),
            ..NetConfig::instant()
        };
        // 1000 wire bytes at 1MB/s = 1ms.
        let d = cfg.delay(0, 1, 1000);
        assert!(d >= Duration::from_micros(1100) && d < Duration::from_micros(1200));
        assert!(cfg.delay(0, 0, 0) == Duration::from_micros(1));
        assert_eq!(NetConfig::instant().delay(0, 1, 1 << 20), Duration::ZERO);
    }

    #[test]
    fn spin_window_converges_to_the_measured_overshoot() {
        let mut w = SpinWindow::new();
        for _ in 0..200 {
            w.observe(7_000);
        }
        assert_eq!(w.ns(), 7_000);
        // Steady state: one more identical sample leaves it in place.
        assert_eq!(w.observe(7_000), 7_000);
    }

    #[test]
    fn spin_window_caps_an_outlier_at_twice_the_window() {
        let mut w = SpinWindow::new();
        for _ in 0..200 {
            w.observe(7_000);
        }
        // A 1 ms preemption counts as a 14 µs sample: (7·7 + 14) / 8.
        assert_eq!(w.observe(1_000_000), 7_875);
        // And it washes out again.
        for _ in 0..200 {
            w.observe(7_000);
        }
        assert_eq!(w.ns(), 7_000);
    }

    #[test]
    fn spin_window_clamps_hold() {
        let mut w = SpinWindow::new();
        for _ in 0..200 {
            w.observe(0);
        }
        assert_eq!(w.ns(), SpinWindow::MIN_NS);
        let mut prev = w.ns();
        for _ in 0..500 {
            let now = w.observe(u64::MAX / 4);
            assert!(now >= prev && now <= SpinWindow::MAX_NS);
            prev = now;
        }
        assert!(prev > SpinWindow::MAX_NS - 1_000, "window reached {prev}");
    }

    #[test]
    fn wheel_orders_and_never_pops_early() {
        let mut wheel = TimingWheel::new(0);
        let mk = |due: u64, seq: u64| InFlight {
            due,
            seq,
            msg_id: 0,
            msg: msg(0, 1, seq, 0),
        };
        // Includes an overflow-horizon due and two equal dues (seq order).
        wheel.insert(mk(50_000, 1));
        wheel.insert(mk(10_000, 2));
        wheel.insert(mk(10_000, 3));
        wheel.insert(mk(100_000_000, 4));
        assert_eq!(wheel.earliest(), 10_000);
        assert!(wheel.pop_due(9_999).is_none());
        let order: Vec<u64> =
            std::iter::from_fn(|| wheel.pop_due(200_000_000).map(|e| e.seq)).collect();
        assert_eq!(order, vec![2, 3, 1, 4]);
        assert_eq!(wheel.earliest(), u64::MAX);
    }

    #[test]
    fn delivers_to_registered_handler() {
        let engine = DeliveryEngine::start(2, NetConfig::instant());
        let (tx, rx) = std::sync::mpsc::channel();
        engine.register_handler(
            1,
            Channel::APP,
            Box::new(move |m| {
                tx.send(m.tag).unwrap();
            }),
        );
        engine.send(msg(0, 1, 42, 8));
        assert_eq!(rx.recv_timeout(Duration::from_secs(5)).unwrap(), 42);
        engine.stop();
    }

    #[test]
    fn preserves_order_per_pair() {
        let engine = DeliveryEngine::start(2, NetConfig::default());
        let (tx, rx) = std::sync::mpsc::channel();
        engine.register_handler(
            1,
            Channel::APP,
            Box::new(move |m| {
                tx.send(m.tag).unwrap();
            }),
        );
        for i in 0..50 {
            engine.send(msg(0, 1, i, 16));
        }
        let got: Vec<u64> = (0..50)
            .map(|_| rx.recv_timeout(Duration::from_secs(5)).unwrap())
            .collect();
        assert_eq!(got, (0..50).collect::<Vec<_>>());
        engine.stop();
    }

    #[test]
    fn small_message_does_not_overtake_large_one() {
        // Regression: a 1 MB message followed by an empty one on the same
        // link. With bandwidth in the model, the small message's raw delay
        // is shorter — the engine must still deliver in send order.
        let cfg = NetConfig {
            latency: Duration::from_micros(10),
            bandwidth: 100.0e6, // 1MB -> 10ms
            self_latency: Duration::ZERO,
            ..NetConfig::instant()
        };
        let engine = DeliveryEngine::start(2, cfg);
        let (tx, rx) = std::sync::mpsc::channel();
        engine.register_handler(
            1,
            Channel::APP,
            Box::new(move |m| {
                tx.send(m.tag).unwrap();
            }),
        );
        engine.send(msg(0, 1, 1, 1 << 20));
        engine.send(msg(0, 1, 2, 0));
        assert_eq!(rx.recv_timeout(Duration::from_secs(10)).unwrap(), 1);
        assert_eq!(rx.recv_timeout(Duration::from_secs(10)).unwrap(), 2);
        engine.stop();
    }

    #[test]
    fn latency_is_enforced_in_real_time() {
        let cfg = NetConfig {
            latency: Duration::from_millis(20),
            bandwidth: f64::INFINITY,
            self_latency: Duration::ZERO,
            ..NetConfig::instant()
        };
        let engine = DeliveryEngine::start(2, cfg);
        let (tx, rx) = std::sync::mpsc::channel();
        engine.register_handler(
            1,
            Channel::APP,
            Box::new(move |_| {
                tx.send(Instant::now()).unwrap();
            }),
        );
        let sent = Instant::now();
        engine.send(msg(0, 1, 0, 0));
        let arrived = rx.recv_timeout(Duration::from_secs(5)).unwrap();
        assert!(
            arrived - sent >= Duration::from_millis(19),
            "latency not enforced: {:?}",
            arrived - sent
        );
        engine.stop();
    }

    #[test]
    fn unregistered_handler_message_survives_until_registration() {
        let engine = DeliveryEngine::start(2, NetConfig::instant());
        engine.send(msg(0, 1, 9, 0));
        std::thread::sleep(Duration::from_millis(5));
        let (tx, rx) = std::sync::mpsc::channel();
        engine.register_handler(
            1,
            Channel::APP,
            Box::new(move |m| {
                tx.send(m.tag).unwrap();
            }),
        );
        assert_eq!(rx.recv_timeout(Duration::from_secs(5)).unwrap(), 9);
        engine.stop();
    }

    #[test]
    fn stats_count_traffic() {
        let engine = DeliveryEngine::start(2, NetConfig::instant());
        engine.register_handler(1, Channel::APP, Box::new(|_| {}));
        engine.send(msg(0, 1, 0, 100));
        engine.send(msg(0, 1, 1, 100));
        let snap = engine.stats.snapshot();
        assert_eq!(snap.messages, 2);
        assert_eq!(snap.bytes, 2 * 164);
        engine.stop();
    }

    #[test]
    fn framed_message_counts_header_bytes() {
        let engine = DeliveryEngine::start(2, NetConfig::instant());
        engine.register_handler(1, Channel::APP, Box::new(|_| {}));
        let mut m = msg(0, 1, 0, 100);
        m.header = Bytes::from(vec![0u8; 13]);
        engine.send(m);
        assert_eq!(engine.stats.snapshot().bytes, 164 + 13);
        engine.stop();
    }

    #[test]
    fn handler_sees_modeled_due_timestamp() {
        let engine = DeliveryEngine::start(2, NetConfig::instant());
        let (tx, rx) = std::sync::mpsc::channel();
        engine.register_handler(
            1,
            Channel::APP,
            Box::new(move |m| {
                tx.send(m.due_ns).unwrap();
            }),
        );
        let before = clock::now_ns();
        engine.send(msg(0, 1, 0, 0));
        let due = rx.recv_timeout(Duration::from_secs(5)).unwrap();
        assert!(due >= before, "due_ns not stamped: {due} < {before}");
        engine.stop();
    }

    #[test]
    fn handlers_may_reenter_send() {
        // A handler on rank 1 that forwards to rank 0 (ping-pong).
        let engine = DeliveryEngine::start(2, NetConfig::instant());
        let (tx, rx) = std::sync::mpsc::channel();
        {
            let engine2 = Arc::clone(&engine);
            engine.register_handler(
                1,
                Channel::APP,
                Box::new(move |m| {
                    let mut reply = Message::new(1, 0, Channel::APP, m.tag + 1, m.payload);
                    reply.span = m.span;
                    engine2.send(reply);
                }),
            );
        }
        engine.register_handler(
            0,
            Channel::APP,
            Box::new(move |m| {
                tx.send(m.tag).unwrap();
            }),
        );
        engine.send(msg(0, 1, 10, 0));
        assert_eq!(rx.recv_timeout(Duration::from_secs(5)).unwrap(), 11);
        engine.stop();
    }

    #[test]
    fn stop_hooks_run_on_stop() {
        let engine = DeliveryEngine::start(2, NetConfig::instant());
        let fired = Arc::new(AtomicBool::new(false));
        let f = Arc::clone(&fired);
        engine.on_stop(move || f.store(true, Ordering::SeqCst));
        engine.stop();
        assert!(fired.load(Ordering::SeqCst));
    }
}
