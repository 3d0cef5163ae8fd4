//! Ack-based reliable delivery over a lossy [`Transport`], with
//! epoch-numbered incarnations for rank restart.
//!
//! When a [`crate::FaultPlan`] is armed, the wire may drop, duplicate,
//! reorder and delay messages. `ReliableTransport` restores exactly-once,
//! in-order delivery per (src, dst) pair with the classic recipe
//! (DESIGN.md §2.9):
//!
//! * every data payload is framed with a per-destination sequence number;
//! * the receiver delivers in sequence order, holds early frames in a
//!   reorder buffer, discards duplicates, and returns *cumulative* acks;
//! * the sender keeps unacked frames and retransmits the head of line on a
//!   timeout with exponential backoff, bounded by
//!   [`RetryConfig::max_attempts`] — after which the peer is declared dead
//!   and a typed [`ModuleError::Unreachable`] is recorded.
//!
//! # The fast wire path (DESIGN.md §2.15)
//!
//! Three throughput optimizations ride on the same sequencing machinery
//! without changing its semantics:
//!
//! * **Zero-copy framing.** Frame headers travel in [`Message::header`],
//!   separate from the payload, so a DATA send never copies the payload
//!   into a framed buffer: the sender's queue, the unacked retention map,
//!   retransmits, and restart replay all share one `Bytes` buffer
//!   ([`payload_copies_avoided`](ReliableStatsSnapshot) counts frames that
//!   shipped by reference).
//! * **Ack coalescing + piggybacking.** A received DATA frame no longer
//!   triggers an immediate standalone ACK. The receiver owes an ack and
//!   either piggybacks the cumulative ack on the next reverse-direction
//!   DATA/JUMBO frame, flushes a standalone ACK once
//!   16 frames are owed, or lets the retry thread flush it after 100 µs —
//!   far below the 2 ms retransmit timeout, so delaying never provokes
//!   spurious retransmits.
//! * **Send coalescing.** Small frames sent while earlier traffic to the
//!   same peer is still unacked are *staged* and flushed as one JUMBO
//!   frame per channel (by size/count threshold, flush deadline, or when
//!   the wire goes idle). The receiver unpacks sub-frames *before* the
//!   in-order hold-back, so sequence numbers, epochs, and replay logs are
//!   exactly as if each frame had traveled alone. The first frame of a
//!   burst always goes straight to the wire — request/response latency is
//!   never Nagled.
//!
//! # Epochs and rank restart (DESIGN.md §2.13)
//!
//! Every frame carries the sender's **epoch** — its incarnation number.
//! When a supervised rank is restored from a checkpoint it calls
//! [`ReliableTransport::restart`] with the per-peer receive watermarks
//! captured in the snapshot: the endpoint bumps its epoch, resets its send
//! sequence space to zero, rolls its receive cursors back to the
//! watermarks, and broadcasts a `RESTART(epoch, cum)` frame to every peer.
//! A peer seeing the higher epoch discards in-flight frames and acks from
//! the old incarnation, clears its hold-back queue, treats `cum` as an
//! implicit cumulative-ack reset (frames below it were durably
//! checkpointed; frames at or above it are retransmitted), and confirms
//! with `RESTART_ACK`. Peers keep their own sequence numbering toward the
//! restarted rank, so the restored receive watermark lines up exactly with
//! the retransmitted stream — exactly-once delivery across the crash.
//!
//! Frames a receiver already acked may still be *rolled back* by its
//! restore; senders therefore retain acked frames in a replay log (when
//! [`ReliableTransport::enable_retention`] is armed) until the receiver's
//! periodic `CKPT(watermark)` frame confirms they are covered by a durable
//! snapshot. The `RESTART` resync replays the log, reconstructing every
//! delivered-then-rolled-back message.
//!
//! On a fault-free engine (no plan armed) every call passes straight
//! through to the raw transport: no framing, no acks, no retry thread —
//! zero overhead for normal runs.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

use bytes::Bytes;
use hiper_runtime::ModuleError;
use hiper_trace::EventKind;
use parking_lot::{Condvar, Mutex};

use crate::cluster::Transport;
use crate::engine::Handler;
use crate::message::{Channel, Message, Rank};

/// `[1][epoch u32][seq u64][ackflag u8]` (+12B piggyback ack), payload =
/// user bytes.
const FRAME_DATA: u8 = 1;
/// `[2][data_epoch u32][acker_epoch u32][cum u64]`, empty payload.
const FRAME_ACK: u8 = 2;
/// Restarted incarnation announcing its new epoch and receive watermark:
/// `[3][epoch u32][cum u64]`.
const FRAME_RESTART: u8 = 3;
/// Peer's confirmation that it resynchronized to the announced epoch:
/// `[4][epoch u32]`.
const FRAME_RESTART_ACK: u8 = 4;
/// Receiver's durable-checkpoint watermark (`[5][epoch u32][wm u64]`):
/// retained frames below it may be GC'd from the sender's replay log.
const FRAME_CKPT: u8 = 5;
/// Coalesced carrier: `[6][epoch u32][count u16][ackflag u8]` (+12B
/// piggyback ack); payload = `count` sub-frames, each
/// `[seq u64][tag u64][span u64][len u32][payload bytes]`.
const FRAME_JUMBO: u8 = 6;

/// Per-sub-frame overhead inside a JUMBO payload. The span is always
/// embedded (0 when untraced) so the modeled wire size — and therefore the
/// chaos-grid schedule — is identical with tracing on or off.
const SUB_OVERHEAD: usize = 28;

/// Retry policy for unacked frames.
#[derive(Debug, Clone, Copy)]
pub struct RetryConfig {
    /// Initial retransmit timeout.
    pub timeout: Duration,
    /// Timeout multiplier applied per retransmission.
    pub backoff: f64,
    /// Upper bound on the backed-off timeout.
    pub max_timeout: Duration,
    /// Attempts (first send + retransmissions) before the peer is declared
    /// unreachable.
    pub max_attempts: u32,
}

impl Default for RetryConfig {
    fn default() -> RetryConfig {
        RetryConfig {
            timeout: Duration::from_millis(2),
            backoff: 2.0,
            max_timeout: Duration::from_millis(50),
            // With the defaults this spans > 1s of outage: 2+4+...+50ms
            // capped sums to well past transient kill windows.
            max_attempts: 30,
        }
    }
}

/// Delay before an owed ack is flushed standalone.
const ACK_DELAY: Duration = Duration::from_micros(100);
/// Owed-ack count that forces an immediate standalone flush.
const ACK_THRESHOLD: u32 = 16;

/// Send coalescing (Nagle): only frames with payloads at most this large
/// are staged.
const STAGE_MAX_PAYLOAD: usize = 512;
/// A stage flushes once it holds this many payload bytes...
const STAGE_FLUSH_BYTES: usize = 4096;
/// ...or this many frames...
const STAGE_FLUSH_FRAMES: usize = 16;
/// ...or when this long has passed since its first frame.
const STAGE_DELAY: Duration = Duration::from_micros(100);

/// A stored logical frame: (channel, tag, payload, causal span). The
/// payload is the *user* `Bytes` — shared by refcount with the original
/// send, so retention and retransmission never copy it; wire headers are
/// rebuilt at (re)send time from the current epoch and the map key (safe:
/// `restart` clears `unacked`/`log`, so a stored frame can never outlive
/// its sender's epoch).
type StoredFrame = (Channel, u64, Bytes, u64);

/// A frame ready for the wire, built under the state lock and shipped
/// outside it (handlers may re-enter `send`).
struct Out {
    dst: Rank,
    channel: Channel,
    tag: u64,
    header: Bytes,
    payload: Bytes,
    span: u64,
}

/// Per-peer sender + receiver state.
#[derive(Default)]
struct Peer {
    /// Last known epoch (incarnation number) of this peer.
    epoch: u32,
    /// Next sequence number to assign (send side).
    next_seq: u64,
    /// Sent-or-staged but unacked frames, keyed by sequence number.
    unacked: BTreeMap<u64, StoredFrame>,
    /// Acked frames retained for restart replay (retention mode only):
    /// delivered at the peer but not yet covered by one of its durable
    /// checkpoints. GC'd by `FRAME_CKPT` watermarks.
    log: BTreeMap<u64, StoredFrame>,
    /// Staged (coalesced) sequence numbers not yet on the wire. The frames
    /// themselves live in `unacked`; this is just the flush order.
    staged: Vec<u64>,
    /// Modeled bytes currently staged (payloads + sub-frame overhead).
    staged_bytes: usize,
    /// Flush deadline for a non-full stage.
    stage_deadline: Option<Instant>,
    /// DATA frames received from this peer whose cumulative ack has not
    /// been sent yet (piggybacked, threshold-flushed, or delay-flushed).
    ack_owed: u32,
    /// Deadline for flushing a standalone ack of the owed frames.
    ack_deadline: Option<Instant>,
    /// Retransmit deadline for the head-of-line frame.
    head_deadline: Option<Instant>,
    /// Current (backed-off) timeout for the head frame.
    head_timeout: Duration,
    /// Send attempts of the head frame so far.
    head_attempts: u32,
    /// Next sequence number to deliver (receive side).
    next_deliver: u64,
    /// Early frames held for resequencing.
    held: BTreeMap<u64, Message>,
    /// Peer exhausted its retry budget; sends to it are discarded.
    dead: bool,
    /// Recovery hold: the peer is known-down and being recovered, so the
    /// retry thread neither retransmits nor burns budget toward it.
    quiesced: bool,
    /// Our own `RESTART` toward this peer is not yet `RESTART_ACK`ed.
    restart_pending: bool,
    /// The receive watermark announced in our pending `RESTART`.
    restart_cum: u64,
    /// Resend deadline for the pending `RESTART`.
    restart_deadline: Option<Instant>,
    /// Resend attempts of the pending `RESTART`.
    restart_attempts: u32,
    /// When the most recent ack from this peer was applied.
    last_ack_at: Option<Instant>,
}

impl Peer {
    /// The receive-side state machine, identical for lone DATA frames and
    /// unpacked JUMBO sub-frames: in-order delivery, hold-back for early
    /// frames, duplicate discard. Returns the messages now deliverable.
    fn admit(&mut self, seq: u64, stripped: Message) -> Vec<Message> {
        let mut deliverable = Vec::new();
        if seq >= self.next_deliver {
            if seq == self.next_deliver {
                self.next_deliver += 1;
                deliverable.push(stripped);
                while let Some(m) = self.held.remove(&self.next_deliver) {
                    self.next_deliver += 1;
                    deliverable.push(m);
                }
            } else {
                self.held.insert(seq, stripped);
            }
        }
        deliverable
    }

    /// Takes the owed cumulative ack for attachment to an outgoing frame
    /// (or a standalone flush): `(data_epoch, cum)`.
    fn take_ack(&mut self) -> Option<(u32, u64)> {
        if self.ack_owed == 0 {
            return None;
        }
        self.ack_owed = 0;
        self.ack_deadline = None;
        Some((self.epoch, self.next_deliver))
    }

    /// The earliest deadline the flusher has to act on for this peer, as
    /// the scan in [`ReliableTransport::flusher_pass`] reads them.
    fn next_deadline(&self) -> Option<Instant> {
        if self.quiesced {
            return None;
        }
        [
            self.restart_deadline.filter(|_| self.restart_pending),
            self.stage_deadline,
            self.ack_deadline,
            self.head_deadline.filter(|_| !self.dead),
        ]
        .into_iter()
        .flatten()
        .min()
    }

    /// Drops all staging state (restart, death).
    fn clear_stage(&mut self) {
        self.staged.clear();
        self.staged_bytes = 0;
        self.stage_deadline = None;
    }
}

struct State {
    /// This endpoint's incarnation number (bumped by [`restart`]).
    ///
    /// [`restart`]: ReliableTransport::restart
    my_epoch: u32,
    peers: Vec<Peer>,
    /// First unreachability error, if any ([`ReliableTransport::health`]).
    error: Option<ModuleError>,
    /// The deadline the flusher thread sleeps toward, published under this
    /// lock right before it waits (`None` while it is awake: it re-scans
    /// every deadline before it sleeps again).
    sleeping_until: Option<Instant>,
    /// Threads blocked in [`ReliableTransport::flush`].
    flush_waiters: usize,
    /// Channels with registered handlers; control frames (`RESTART`,
    /// `CKPT`, delayed acks) travel on the first one.
    channels: Vec<Channel>,
}

/// Point-in-time copy of the reliable layer's message-path counters
/// (`--stats` surfacing in `chaos_check`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReliableStatsSnapshot {
    /// Retransmitted frames.
    pub retries: u64,
    /// Logical frames that traveled inside JUMBO carriers.
    pub frames_coalesced: u64,
    /// Cumulative acks carried by reverse-direction DATA/JUMBO frames.
    pub acks_piggybacked: u64,
    /// Standalone acks flushed by threshold or delay (each covers
    /// `ack_owed` DATA frames that old code would have acked one-by-one).
    pub acks_flushed: u64,
    /// DATA frames whose payload went to the wire by reference (first
    /// sends, retransmits, and replay bursts that shared the user buffer).
    pub payload_copies_avoided: u64,
    /// Times the retry/flush thread came out of its sleep (deadline
    /// reached, idle tick, or poked).
    pub flusher_wakeups: u64,
    /// Sends and received frames that left the flusher asleep because they
    /// armed no deadline earlier than the one it sleeps toward (each was a
    /// condvar notify before).
    pub flusher_pokes_suppressed: u64,
}

impl std::fmt::Display for ReliableStatsSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "retries={} frames_coalesced={} acks_piggybacked={} acks_flushed={} \
             payload_copies_avoided={} flusher_wakeups={} flusher_pokes_suppressed={}",
            self.retries,
            self.frames_coalesced,
            self.acks_piggybacked,
            self.acks_flushed,
            self.payload_copies_avoided,
            self.flusher_wakeups,
            self.flusher_pokes_suppressed
        )
    }
}

/// Exactly-once, in-order delivery on top of a faulty [`Transport`];
/// transparent pass-through on a reliable one.
pub struct ReliableTransport {
    transport: Transport,
    module: &'static str,
    cfg: RetryConfig,
    enabled: bool,
    /// Delay before a standalone ack flush ([`ACK_DELAY`]; tests shorten
    /// or stretch it).
    ack_delay: Duration,
    /// Retain acked frames for restart replay (supervised runs).
    retention: AtomicBool,
    state: Mutex<State>,
    /// The retry/flush thread's sleep; see [`ReliableTransport::poke`].
    cond: Condvar,
    /// [`flush`](ReliableTransport::flush) waiters' sleep.
    drained: Condvar,
    /// True once the retry/flush thread was spawned.
    retry_running: AtomicBool,
    flusher_wakeups: AtomicU64,
    flusher_pokes_suppressed: AtomicU64,
    /// Retransmitted frames (chaos-run diagnostics).
    pub retries: AtomicU64,
    /// Logical frames shipped inside JUMBO carriers.
    pub frames_coalesced: AtomicU64,
    /// Acks carried on reverse-direction data frames.
    pub acks_piggybacked: AtomicU64,
    /// Standalone delayed/threshold ack flushes.
    pub acks_flushed: AtomicU64,
    /// DATA payloads that reached the wire without being copied.
    pub payload_copies_avoided: AtomicU64,
    /// Keeps the head-of-line stall probe registered with the runtime
    /// watchdog for this endpoint's lifetime (deregisters on drop).
    _watchdog_probe: Mutex<Option<hiper_runtime::watchdog::ProbeHandle>>,
    /// Keeps the per-peer state info (epoch, queue depths, last-ack age)
    /// in the watchdog flight record for this endpoint's lifetime.
    _watchdog_info: Mutex<Option<hiper_runtime::watchdog::InfoHandle>>,
}

impl ReliableTransport {
    /// Wraps `transport`; `module` names the owner in errors and stats.
    /// Reliable framing arms itself only when the underlying engine has an
    /// active fault plan.
    pub fn new(transport: Transport, module: &'static str, cfg: RetryConfig) -> Arc<Self> {
        let enabled = transport.faults_active();
        let nranks = transport.nranks();
        let me = Arc::new(ReliableTransport {
            transport,
            module,
            cfg,
            enabled,
            ack_delay: ACK_DELAY,
            retention: AtomicBool::new(false),
            state: Mutex::new(State {
                my_epoch: 0,
                peers: (0..nranks).map(|_| Peer::default()).collect(),
                error: None,
                sleeping_until: None,
                flush_waiters: 0,
                channels: Vec::new(),
            }),
            cond: Condvar::new(),
            drained: Condvar::new(),
            retry_running: AtomicBool::new(false),
            flusher_wakeups: AtomicU64::new(0),
            flusher_pokes_suppressed: AtomicU64::new(0),
            retries: AtomicU64::new(0),
            frames_coalesced: AtomicU64::new(0),
            acks_piggybacked: AtomicU64::new(0),
            acks_flushed: AtomicU64::new(0),
            payload_copies_avoided: AtomicU64::new(0),
            _watchdog_probe: Mutex::new(None),
            _watchdog_info: Mutex::new(None),
        });
        // Under the watchdog, a head-of-line frame burning through its
        // retry budget (or a peer already declared dead) is evidence that
        // "no progress" is a wedged wire, not an idle app. The probe holds
        // a weak ref so it never outlives the endpoint.
        if enabled && hiper_runtime::watchdog::recording() {
            let weak = Arc::downgrade(&me);
            let name = format!("reliable[{} rank {}]", module, me.transport.rank());
            let probe = hiper_runtime::watchdog::register_probe(name, move || {
                let me = weak.upgrade()?;
                me.head_of_line_report()
            });
            *me._watchdog_probe.lock() = Some(probe);
            let weak = Arc::downgrade(&me);
            let name = format!("reliable-state[{} rank {}]", module, me.transport.rank());
            let info = hiper_runtime::watchdog::register_info(name, move || {
                weak.upgrade()
                    .map_or_else(|| "<endpoint dropped>".into(), |me| me.peer_state_report())
            });
            *me._watchdog_info.lock() = Some(info);
        }
        me
    }

    /// `Some(report)` when any peer looks wedged: declared dead, or a
    /// head-of-line frame that has consumed at least half its retry budget.
    fn head_of_line_report(&self) -> Option<String> {
        let st = self.state.lock();
        let suspect_after = (self.cfg.max_attempts / 2).max(2);
        let mut lines = Vec::new();
        for (dst, peer) in st.peers.iter().enumerate() {
            if peer.dead {
                lines.push(format!(
                    "rank {}->{}: peer dead after {} attempts",
                    self.transport.rank(),
                    dst,
                    self.cfg.max_attempts
                ));
            } else if peer.head_attempts >= suspect_after {
                if let Some((&seq, (_, tag, _, span))) = peer.unacked.iter().next() {
                    lines.push(format!(
                        "rank {}->{}: head seq {} (tag {}, span {}) stuck at \
                         attempt {}/{}, {} frame(s) queued",
                        self.transport.rank(),
                        dst,
                        seq,
                        tag,
                        span,
                        peer.head_attempts,
                        self.cfg.max_attempts,
                        peer.unacked.len()
                    ));
                }
            }
        }
        if lines.is_empty() {
            None
        } else {
            Some(lines.join("; "))
        }
    }

    /// One line per peer with everything a stuck recovery needs: epoch,
    /// retransmit queue depth, replay-log depth, receive cursor, and the
    /// age of the last ack. Rendered into the watchdog flight record.
    pub fn peer_state_report(&self) -> String {
        let st = self.state.lock();
        let me = self.transport.rank();
        let mut lines = vec![format!("epoch={} rank={}", st.my_epoch, me)];
        for (dst, peer) in st.peers.iter().enumerate() {
            if dst == me {
                continue;
            }
            let last_ack = peer.last_ack_at.map_or_else(
                || "never".into(),
                |t| format!("{}ms", t.elapsed().as_millis()),
            );
            lines.push(format!(
                "->{}: epoch={} unacked={} staged={} log={} next_seq={} next_deliver={} held={} \
                 attempts={} ack_owed={} last_ack_age={}{}{}{}",
                dst,
                peer.epoch,
                peer.unacked.len(),
                peer.staged.len(),
                peer.log.len(),
                peer.next_seq,
                peer.next_deliver,
                peer.held.len(),
                peer.head_attempts,
                peer.ack_owed,
                last_ack,
                if peer.dead { " DEAD" } else { "" },
                if peer.quiesced { " QUIESCED" } else { "" },
                if peer.restart_pending {
                    " RESTART-PENDING"
                } else {
                    ""
                },
            ));
        }
        lines.join("; ")
    }

    /// This endpoint's rank.
    pub fn rank(&self) -> Rank {
        self.transport.rank()
    }

    /// Total ranks.
    pub fn nranks(&self) -> usize {
        self.transport.nranks()
    }

    /// True when acked delivery is armed (a fault plan is active).
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Retransmissions so far.
    pub fn retry_count(&self) -> u64 {
        self.retries.load(Ordering::Relaxed)
    }

    /// Message-path counter snapshot.
    pub fn stats(&self) -> ReliableStatsSnapshot {
        ReliableStatsSnapshot {
            retries: self.retries.load(Ordering::Relaxed),
            frames_coalesced: self.frames_coalesced.load(Ordering::Relaxed),
            acks_piggybacked: self.acks_piggybacked.load(Ordering::Relaxed),
            acks_flushed: self.acks_flushed.load(Ordering::Relaxed),
            payload_copies_avoided: self.payload_copies_avoided.load(Ordering::Relaxed),
            flusher_wakeups: self.flusher_wakeups.load(Ordering::Relaxed),
            flusher_pokes_suppressed: self.flusher_pokes_suppressed.load(Ordering::Relaxed),
        }
    }

    /// This endpoint's current epoch (incarnation number).
    pub fn epoch(&self) -> u32 {
        if !self.enabled {
            return 0;
        }
        self.state.lock().my_epoch
    }

    /// `Err` once any peer exhausted its retry budget.
    pub fn health(&self) -> Result<(), ModuleError> {
        match &self.state.lock().error {
            Some(e) => Err(e.clone()),
            None => Ok(()),
        }
    }

    // ------------------------------------------------------------------
    // Supervision hooks (DESIGN.md §2.13)
    // ------------------------------------------------------------------

    /// Arms acked-frame retention: frames stay in a per-peer replay log
    /// after the ack until a `CKPT` watermark from the receiver confirms a
    /// durable snapshot covers them. Required for restart replay; bounded
    /// by the receiver's checkpoint cadence.
    pub fn enable_retention(&self) {
        self.retention.store(true, Ordering::Release);
    }

    /// Per-peer receive cursors, for inclusion in a durable checkpoint.
    /// [`restart`] rolls the receive side back to exactly these values.
    ///
    /// [`restart`]: ReliableTransport::restart
    pub fn recv_watermarks(&self) -> Vec<u64> {
        if !self.enabled {
            return vec![0; self.transport.nranks()];
        }
        self.state
            .lock()
            .peers
            .iter()
            .map(|p| p.next_deliver)
            .collect()
    }

    /// Announces a durable checkpoint to every peer: frames below
    /// `watermarks[peer]` are covered by the snapshot and may leave the
    /// peers' replay logs. Call with the watermarks stored in the snapshot.
    pub fn checkpoint_mark(&self, watermarks: &[u64]) {
        if !self.enabled {
            return;
        }
        let me = self.transport.rank();
        let (epoch, channel) = {
            let st = self.state.lock();
            match st.channels.first() {
                Some(&c) => (st.my_epoch, c),
                None => return,
            }
        };
        for (dst, &w) in watermarks.iter().enumerate() {
            if dst == me {
                continue;
            }
            self.transport
                .send_framed(dst, channel, 0, ckpt_header(epoch, w), Bytes::new(), 0);
        }
    }

    /// Blocks until every DATA frame sent before this call has been
    /// cumulatively acked by its receiver (retransmits keep running
    /// underneath), or `timeout` expires; returns whether the drain
    /// completed. Quiesced and dead peers are skipped — frames toward a
    /// crashed peer are replayed by the epoch resync when it recovers.
    ///
    /// This is the send-side half of the supervised crash discipline: a
    /// victim's [`restart`] voids the dead incarnation's sequence space,
    /// so any frame still unacked when the rank dies would be lost forever
    /// — replay only regenerates sends *after* the checkpoint cut. The
    /// harness therefore drains the victim's unacked queues right before
    /// unwinding ([`SupervisorHarness::crash_point`]), making "everything
    /// the victim sent before dying was delivered" an invariant rather
    /// than a race.
    ///
    /// [`restart`]: ReliableTransport::restart
    /// [`SupervisorHarness::crash_point`]: crate::SupervisorHarness::crash_point
    pub fn flush(&self, timeout: Duration) -> bool {
        if !self.enabled {
            return true;
        }
        let deadline = Instant::now() + timeout;
        let mut st = self.state.lock();
        st.flush_waiters += 1;
        let drained = loop {
            let pending = st
                .peers
                .iter()
                .any(|p| !p.quiesced && !p.dead && !p.unacked.is_empty());
            if !pending {
                break true;
            }
            if Instant::now() >= deadline || self.transport.engine().is_stopped() {
                break false;
            }
            // Ack arrivals (and engine stop) notify this condvar while a
            // waiter is registered; the 1ms tick is only a safety net.
            self.drained.wait_for(&mut st, Duration::from_millis(1));
        };
        st.flush_waiters -= 1;
        drained
    }

    /// Called last under the state lock `st` by a path that mutated `peer`:
    /// pokes the flusher only if `peer` now has a deadline earlier than the
    /// one it sleeps toward — the publish-then-reverify handshake of
    /// `DeliveryEngine::sleep_until`, with the state lock in place of the
    /// fences: the flusher publishes `sleeping_until` and starts waiting in
    /// one critical section, so whoever arms a deadline afterwards sees the
    /// target it must undercut — and notifies `flush` waiters only if there
    /// are any.
    fn poke(&self, st: &State, peer: Rank) {
        match (st.sleeping_until, st.peers[peer].next_deadline()) {
            (Some(until), Some(armed)) if armed < until => self.cond.notify_all(),
            _ => {
                self.flusher_pokes_suppressed
                    .fetch_add(1, Ordering::Relaxed);
            }
        }
        if st.flush_waiters != 0 {
            self.drained.notify_all();
        }
    }

    /// Recovery hold on one peer: while quiesced, the retry thread
    /// neither retransmits toward it nor burns its retry budget, and new
    /// sends are queued without touching the wire. Releasing the hold
    /// grants the head-of-line frame a fresh budget and retransmits
    /// immediately.
    pub fn quiesce_peer(&self, peer: Rank, on: bool) {
        if !self.enabled {
            return;
        }
        {
            let mut st = self.state.lock();
            let p = &mut st.peers[peer];
            p.quiesced = on;
            if !on {
                p.head_attempts = 0;
                p.head_timeout = self.cfg.timeout;
                p.head_deadline = if p.unacked.is_empty() {
                    None
                } else {
                    Some(Instant::now())
                };
                if !p.staged.is_empty() {
                    p.stage_deadline = Some(Instant::now());
                }
                if p.restart_pending {
                    p.restart_deadline = Some(Instant::now());
                }
            }
        }
        self.cond.notify_all();
        self.drained.notify_all();
    }

    /// Restarts this endpoint as a new incarnation restored from a
    /// checkpoint: bumps the epoch, resets the send sequence space, rolls
    /// receive cursors back to `recv_watermarks` (the values captured by
    /// [`recv_watermarks`] in the snapshot), clears any terminal error, and
    /// broadcasts `RESTART` to every peer (retransmitted until
    /// acknowledged). Returns the new epoch.
    ///
    /// [`recv_watermarks`]: ReliableTransport::recv_watermarks
    pub fn restart(self: &Arc<Self>, recv_watermarks: &[u64]) -> u32 {
        if !self.enabled {
            return 0;
        }
        let me = self.transport.rank();
        let now = Instant::now();
        let (epoch, channel, restarts) = {
            let mut st = self.state.lock();
            st.my_epoch += 1;
            st.error = None;
            let epoch = st.my_epoch;
            let channel = st.channels.first().copied();
            let mut restarts = Vec::new();
            for (dst, peer) in st.peers.iter_mut().enumerate() {
                if dst == me {
                    // The self-link dies with the rank: both endpoints are
                    // part of the crashed state, so it restarts from scratch
                    // — fresh sequence space in both directions, and the
                    // observed self-epoch pre-advanced so stale pre-crash
                    // self-frames still in flight are discarded on arrival
                    // (rather than tripping the new-epoch cursor reset in
                    // `observe_epoch` after replay self-sends resume).
                    peer.next_seq = 0;
                    peer.unacked.clear();
                    peer.log.clear();
                    peer.clear_stage();
                    peer.ack_owed = 0;
                    peer.ack_deadline = None;
                    peer.head_deadline = None;
                    peer.head_timeout = self.cfg.timeout;
                    peer.head_attempts = 0;
                    peer.dead = false;
                    peer.quiesced = false;
                    peer.next_deliver = 0;
                    peer.held.clear();
                    peer.epoch = epoch;
                    peer.restart_pending = false;
                    peer.restart_deadline = None;
                    continue;
                }
                let cum = recv_watermarks.get(dst).copied().unwrap_or(0);
                // Send side: brand-new sequence space under the new epoch.
                peer.next_seq = 0;
                peer.unacked.clear();
                peer.log.clear();
                peer.clear_stage();
                peer.ack_owed = 0;
                peer.ack_deadline = None;
                peer.head_deadline = None;
                peer.head_timeout = self.cfg.timeout;
                peer.head_attempts = 0;
                peer.dead = false;
                peer.quiesced = false;
                // Receive side: exactly the snapshot's cursor; everything
                // at or above it is retransmitted/replayed by the peer.
                peer.next_deliver = cum;
                peer.held.clear();
                peer.restart_pending = true;
                peer.restart_cum = cum;
                peer.restart_deadline = Some(now);
                peer.restart_attempts = 0;
                restarts.push((dst, cum));
            }
            (epoch, channel, restarts)
        };
        if let Some(channel) = channel {
            for (dst, cum) in restarts {
                self.transport.send_framed(
                    dst,
                    channel,
                    0,
                    restart_header(epoch, cum),
                    Bytes::new(),
                    0,
                );
            }
        }
        self.ensure_retry_thread();
        self.cond.notify_all();
        epoch
    }

    /// Sends `payload` to `dst`, reliably when faults are armed. Sends to a
    /// peer already declared unreachable are discarded (see [`health`]).
    ///
    /// [`health`]: ReliableTransport::health
    pub fn send(self: &Arc<Self>, dst: Rank, channel: Channel, tag: u64, payload: Bytes) {
        if !self.enabled {
            return self.transport.send(dst, channel, tag, payload);
        }
        // Capture the causal span here, at the logical send: retransmits
        // (which run on the retry thread, with no task context) reuse it so
        // the eventual delivery still credits the originating task.
        let span = hiper_trace::current_task();
        let outs = {
            let mut st = self.state.lock();
            let my_epoch = st.my_epoch;
            let peer = &mut st.peers[dst];
            if peer.dead {
                return;
            }
            let seq = peer.next_seq;
            peer.next_seq += 1;
            // Nagle condition, checked *before* this frame joins the
            // queue: stage only when earlier traffic toward the peer is
            // already outstanding — a lone request/response never waits.
            let busy = !peer.unacked.is_empty();
            peer.unacked
                .insert(seq, (channel, tag, payload.clone(), span));
            if peer.unacked.len() == 1 {
                peer.head_timeout = self.cfg.timeout;
                peer.head_attempts = 1;
                peer.head_deadline = Some(Instant::now() + self.cfg.timeout);
            }
            let outs = if peer.quiesced {
                // Queue silently; the release retransmits from the head.
                Vec::new()
            } else if busy && payload.len() <= STAGE_MAX_PAYLOAD {
                peer.staged.push(seq);
                peer.staged_bytes += SUB_OVERHEAD + payload.len();
                if peer.staged.len() >= STAGE_FLUSH_FRAMES || peer.staged_bytes >= STAGE_FLUSH_BYTES
                {
                    self.drain_staged(peer, my_epoch, dst)
                } else {
                    if peer.stage_deadline.is_none() {
                        peer.stage_deadline = Some(Instant::now() + STAGE_DELAY);
                    }
                    Vec::new()
                }
            } else {
                let ack = peer.take_ack();
                if ack.is_some() {
                    self.acks_piggybacked.fetch_add(1, Ordering::Relaxed);
                }
                self.payload_copies_avoided.fetch_add(1, Ordering::Relaxed);
                vec![Out {
                    dst,
                    channel,
                    tag,
                    header: data_header(my_epoch, seq, ack),
                    payload,
                    span,
                }]
            };
            self.poke(&st, dst);
            outs
        };
        self.ship(outs);
        self.ensure_retry_thread();
    }

    /// Builds the wire frames for a peer's staged queue (one JUMBO per
    /// channel, plain DATA for singletons), piggybacking the owed ack on
    /// the first frame out. Caller holds the state lock; ship the result
    /// after releasing it.
    fn drain_staged(&self, peer: &mut Peer, my_epoch: u32, dst: Rank) -> Vec<Out> {
        if peer.staged.is_empty() {
            return Vec::new();
        }
        let staged = std::mem::take(&mut peer.staged);
        peer.staged_bytes = 0;
        peer.stage_deadline = None;
        // Group by channel, preserving send order within each: acks and
        // handlers are per-channel, and per-channel FIFO must survive the
        // repacking (the receiver resequences by seq anyway, but one
        // carrier per channel keeps handler dispatch correct).
        let mut groups: Vec<(Channel, Vec<u64>)> = Vec::new();
        for seq in staged {
            // A head-of-line retransmit + ack may have retired a staged
            // frame before its flush deadline.
            let Some(&(channel, ..)) = peer.unacked.get(&seq) else {
                continue;
            };
            match groups.iter_mut().find(|(c, _)| *c == channel) {
                Some((_, seqs)) => seqs.push(seq),
                None => groups.push((channel, vec![seq])),
            }
        }
        let mut ack = peer.take_ack();
        let had_ack = ack.is_some();
        let mut outs = Vec::with_capacity(groups.len());
        for (channel, seqs) in groups {
            if seqs.len() == 1 {
                let seq = seqs[0];
                let (_, tag, payload, span) = peer.unacked[&seq].clone();
                self.payload_copies_avoided.fetch_add(1, Ordering::Relaxed);
                outs.push(Out {
                    dst,
                    channel,
                    tag,
                    header: data_header(my_epoch, seq, ack.take()),
                    payload,
                    span,
                });
            } else {
                let mut buf = Vec::with_capacity(
                    seqs.iter()
                        .map(|s| SUB_OVERHEAD + peer.unacked[s].2.len())
                        .sum(),
                );
                for &seq in &seqs {
                    let (_, tag, payload, span) = &peer.unacked[&seq];
                    buf.extend_from_slice(&seq.to_le_bytes());
                    buf.extend_from_slice(&tag.to_le_bytes());
                    buf.extend_from_slice(&span.to_le_bytes());
                    buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
                    buf.extend_from_slice(payload);
                }
                self.frames_coalesced
                    .fetch_add(seqs.len() as u64, Ordering::Relaxed);
                outs.push(Out {
                    dst,
                    channel,
                    tag: 0,
                    header: jumbo_header(my_epoch, seqs.len() as u16, ack.take()),
                    payload: Bytes::from(buf),
                    span: 0,
                });
            }
        }
        if had_ack && !outs.is_empty() {
            self.acks_piggybacked.fetch_add(1, Ordering::Relaxed);
        }
        outs
    }

    /// Sends prepared frames (outside the state lock).
    fn ship(&self, outs: Vec<Out>) {
        for o in outs {
            self.transport
                .send_framed(o.dst, o.channel, o.tag, o.header, o.payload, o.span);
        }
    }

    /// Registers the inner handler for `channel`. When reliable delivery is
    /// armed the handler sees exactly the sender's payloads, exactly once,
    /// in order; frames and acks stay invisible.
    ///
    /// Every endpoint that *sends* on a channel must also register a handler
    /// for it (a no-op one is fine): acks travel back on the same channel
    /// and are consumed here. The MPI and SHMEM modules register on every
    /// rank, so this holds by construction for them.
    pub fn register_handler(self: &Arc<Self>, channel: Channel, inner: Handler) {
        if !self.enabled {
            return self.transport.register_handler(channel, inner);
        }
        self.state.lock().channels.push(channel);
        let me = Arc::clone(self);
        self.transport.register_handler(
            channel,
            Box::new(move |msg| me.on_wire(channel, &inner, msg)),
        );
    }

    /// Observes `src` at incarnation `claimed` (must hold the state lock
    /// via `st`). On an epoch advance: forgets the dead incarnation's
    /// receive state, revives the peer, and clears a stale terminal error.
    /// Returns false when the frame is from a *stale* incarnation and must
    /// be discarded.
    fn observe_epoch(st: &mut State, src: Rank, claimed: u32, module: &'static str) -> bool {
        let peer = &mut st.peers[src];
        if claimed < peer.epoch {
            return false;
        }
        if claimed > peer.epoch {
            peer.epoch = claimed;
            // The old incarnation's in-flight frames are void: reset the
            // receive cursor for the restarted sender's fresh sequence
            // space and drop held frames from before the crash. Owed acks
            // refer to the dead sequence space too.
            peer.next_deliver = 0;
            peer.held.clear();
            peer.ack_owed = 0;
            peer.ack_deadline = None;
            // A restarted peer is reachable again by definition.
            peer.dead = false;
            peer.quiesced = false;
            peer.head_attempts = 0;
            if let Some(ModuleError::Unreachable { peer: p, .. }) = &st.error {
                if *p == src && st.error.as_ref().map(|e| e.module()) == Some(module) {
                    st.error = None;
                }
            }
        }
        true
    }

    /// Resynchronizes the send side toward a restarted `src` around the
    /// announced cumulative watermark: frames below `cum` are durably
    /// checkpointed at the peer and dropped; retained/unacked frames at or
    /// above it are queued for retransmission. Returns the frames to burst
    /// onto the wire, in sequence order.
    fn resync_send_side(peer: &mut Peer, cum: u64, cfg: &RetryConfig) -> Vec<(u64, StoredFrame)> {
        // Replay log first: its sequence numbers precede every unacked one.
        let keep_log = peer.log.split_off(&cum);
        peer.log.clear();
        for (seq, frame) in keep_log {
            peer.unacked.insert(seq, frame);
        }
        peer.unacked = peer.unacked.split_off(&cum);
        peer.clear_stage();
        peer.head_timeout = cfg.timeout;
        peer.head_attempts = 1;
        peer.head_deadline = if peer.unacked.is_empty() {
            None
        } else {
            Some(Instant::now() + cfg.timeout)
        };
        peer.unacked.iter().map(|(&s, f)| (s, f.clone())).collect()
    }

    /// Books `count` received DATA frames from `src` as owing an ack, and
    /// flushes a standalone cumulative ack when the owed count crosses the
    /// threshold (otherwise arms the delay deadline for the retry thread).
    /// Caller holds the state lock.
    fn note_ack_owed(&self, st: &mut State, src: Rank, channel: Channel, count: u32) -> Vec<Out> {
        let my_epoch = st.my_epoch;
        let peer = &mut st.peers[src];
        peer.ack_owed = peer.ack_owed.saturating_add(count);
        if peer.ack_owed >= ACK_THRESHOLD {
            let (data_epoch, cum) = peer.take_ack().expect("owed > 0");
            self.acks_flushed.fetch_add(1, Ordering::Relaxed);
            vec![Out {
                dst: src,
                channel,
                tag: 0,
                header: ack_header(data_epoch, my_epoch, cum),
                payload: Bytes::new(),
                span: 0,
            }]
        } else {
            if peer.ack_deadline.is_none() {
                peer.ack_deadline = Some(Instant::now() + self.ack_delay);
            }
            Vec::new()
        }
    }

    /// Applies a cumulative ack (standalone or piggybacked): validates
    /// epochs, retires acked frames into the replay log, resyncs on an
    /// epoch advance, and — when the ack leaves nothing outstanding on the
    /// wire — flushes any staged stragglers immediately. Returns
    /// `(replay burst, staged flush)`; caller holds the state lock and
    /// ships both after releasing it.
    #[allow(clippy::type_complexity)]
    fn apply_ack(
        &self,
        st: &mut State,
        src: Rank,
        data_epoch: u32,
        acker_epoch: u32,
        cum: u64,
    ) -> (Vec<(u64, StoredFrame)>, Vec<Out>) {
        let known = st.peers[src].epoch;
        if acker_epoch < known {
            // Ack from a dead incarnation: its cum refers to receive state
            // that was rolled back. Applying it would falsely retire
            // frames the restored peer still needs.
            return (Vec::new(), Vec::new());
        }
        if data_epoch != st.my_epoch {
            // Acks our own previous incarnation's space.
            return (Vec::new(), Vec::new());
        }
        let epoch_advance = acker_epoch > known;
        if !Self::observe_epoch(st, src, acker_epoch, self.module) {
            return (Vec::new(), Vec::new());
        }
        let retention = self.retention.load(Ordering::Acquire);
        let cfg = self.cfg;
        let my_epoch = st.my_epoch;
        let peer = &mut st.peers[src];
        peer.last_ack_at = Some(Instant::now());
        if epoch_advance {
            // The ack overtook the peer's RESTART frame: its cum is the
            // restored receive watermark, so run the full resync now
            // rather than waiting.
            return (Self::resync_send_side(peer, cum, &cfg), Vec::new());
        }
        let mut acked = peer.unacked.split_off(&cum);
        std::mem::swap(&mut acked, &mut peer.unacked);
        if !acked.is_empty() {
            if retention {
                peer.log.extend(acked);
            }
            // Head of line advanced: fresh retry budget for the new head
            // (per-frame bounded attempts).
            peer.head_timeout = cfg.timeout;
            peer.head_attempts = 1;
            peer.head_deadline = if peer.unacked.is_empty() {
                None
            } else {
                Some(Instant::now() + cfg.timeout)
            };
            if !peer.staged.is_empty() {
                // A head-of-line retransmit may have wired (and now acked)
                // frames that were still staged.
                peer.staged.retain(|&s| s >= cum);
                let mut bytes = 0;
                for s in &peer.staged {
                    if let Some(f) = peer.unacked.get(s) {
                        bytes += SUB_OVERHEAD + f.2.len();
                    }
                }
                peer.staged_bytes = bytes;
                if peer.staged.is_empty() {
                    peer.stage_deadline = None;
                }
            }
        }
        // Wire idle after this ack: release staged stragglers immediately
        // instead of waiting out their flush deadline — the Nagle stage
        // only exists to ride behind in-flight traffic.
        let outs = if !peer.staged.is_empty() && peer.unacked.len() == peer.staged.len() {
            self.drain_staged(peer, my_epoch, src)
        } else {
            Vec::new()
        };
        (Vec::new(), outs)
    }

    /// Decodes one wire frame (runs on the delivery-engine thread).
    fn on_wire(self: &Arc<Self>, channel: Channel, inner: &Handler, msg: Message) {
        let hdr = msg.header.clone();
        if hdr.len() < 5 {
            return;
        }
        let kind = hdr[0];
        let epoch_field = rd_u32(&hdr, 1);
        let src = msg.src;
        match kind {
            FRAME_DATA if hdr.len() >= 14 => {
                let seq = rd_u64(&hdr, 5);
                let piggy =
                    (hdr[13] == 1 && hdr.len() >= 26).then(|| (rd_u32(&hdr, 14), rd_u64(&hdr, 18)));
                let (deliverable, outs, burst, burst_epoch) = {
                    let mut st = self.state.lock();
                    if !Self::observe_epoch(&mut st, src, epoch_field, self.module) {
                        return;
                    }
                    let stripped = Message {
                        header: Bytes::new(),
                        ..msg
                    };
                    let deliverable = st.peers[src].admit(seq, stripped);
                    let mut outs = self.note_ack_owed(&mut st, src, channel, 1);
                    // The piggybacked ack is applied *after* the DATA
                    // half, mirroring the order the two halves would have
                    // arrived in as separate frames.
                    let burst = match piggy {
                        Some((de, cum)) => {
                            let (burst, more) = self.apply_ack(&mut st, src, de, epoch_field, cum);
                            outs.extend(more);
                            burst
                        }
                        None => Vec::new(),
                    };
                    self.poke(&st, src);
                    (deliverable, outs, burst, st.my_epoch)
                };
                // Deliver outside the lock: handlers may re-enter send().
                deliver(inner, deliverable);
                self.ship(outs);
                self.burst(src, burst_epoch, burst);
                // The armed ack-flush deadline needs the retry/flusher
                // thread — a pure receiver has not spawned one yet.
                self.ensure_retry_thread();
            }
            FRAME_JUMBO if hdr.len() >= 8 => {
                let count = u16::from_le_bytes([hdr[5], hdr[6]]) as usize;
                let piggy =
                    (hdr[7] == 1 && hdr.len() >= 20).then(|| (rd_u32(&hdr, 8), rd_u64(&hdr, 12)));
                // Unpack sub-frames (zero-copy slices of the carrier
                // payload) *before* the hold-back, so each runs the exact
                // lone-DATA receive path.
                let body = msg.payload.clone();
                let mut subs = Vec::with_capacity(count);
                let mut off = 0usize;
                for _ in 0..count {
                    if off + SUB_OVERHEAD > body.len() {
                        break;
                    }
                    let seq = rd_u64(&body, off);
                    let tag = rd_u64(&body, off + 8);
                    let span = rd_u64(&body, off + 16);
                    let len = rd_u32(&body, off + 24) as usize;
                    off += SUB_OVERHEAD;
                    if off + len > body.len() {
                        break;
                    }
                    subs.push((seq, tag, span, body.slice(off..off + len)));
                    off += len;
                }
                let due_ns = msg.due_ns;
                let (deliverable, outs, burst, burst_epoch) = {
                    let mut st = self.state.lock();
                    if !Self::observe_epoch(&mut st, src, epoch_field, self.module) {
                        return;
                    }
                    let mut deliverable = Vec::new();
                    for (seq, tag, span, payload) in &subs {
                        let sub = Message {
                            src,
                            dst: msg.dst,
                            channel,
                            tag: *tag,
                            header: Bytes::new(),
                            payload: payload.clone(),
                            span: *span,
                            due_ns,
                        };
                        deliverable.extend(st.peers[src].admit(*seq, sub));
                    }
                    let mut outs = self.note_ack_owed(&mut st, src, channel, subs.len() as u32);
                    let burst = match piggy {
                        Some((de, cum)) => {
                            let (burst, more) = self.apply_ack(&mut st, src, de, epoch_field, cum);
                            outs.extend(more);
                            burst
                        }
                        None => Vec::new(),
                    };
                    self.poke(&st, src);
                    (deliverable, outs, burst, st.my_epoch)
                };
                // One jumbo carrier = one engine-level MsgSend/MsgDeliver
                // pair; re-emit a per-logical pair for every sub-frame it
                // carried, stamped at the carrier's modeled delivery time,
                // so trace_check's pairing and causal edges see N logical
                // messages, not one opaque blob.
                if hiper_trace::enabled() {
                    let link = crate::engine::link_word(src, msg.dst);
                    for (_, _, span, _) in &subs {
                        let id = crate::engine::next_msg_id();
                        hiper_trace::emit_at(due_ns, EventKind::MsgSend, *span, link, id);
                        hiper_trace::emit_at(due_ns, EventKind::MsgDeliver, *span, link, id);
                    }
                }
                deliver(inner, deliverable);
                self.ship(outs);
                self.burst(src, burst_epoch, burst);
                self.ensure_retry_thread();
            }
            FRAME_ACK if hdr.len() >= 17 => {
                // data_epoch: whose send space the cum refers to (ours, if
                // current); acker_epoch: the acker's incarnation.
                let acker_epoch = rd_u32(&hdr, 5);
                let cum = rd_u64(&hdr, 9);
                let (burst, outs, burst_epoch) = {
                    let mut st = self.state.lock();
                    let (burst, outs) = self.apply_ack(&mut st, src, epoch_field, acker_epoch, cum);
                    self.poke(&st, src);
                    (burst, outs, st.my_epoch)
                };
                self.ship(outs);
                self.burst(src, burst_epoch, burst);
            }
            FRAME_RESTART if hdr.len() >= 13 => {
                let cum = rd_u64(&hdr, 5);
                let (burst, burst_epoch) = {
                    let mut st = self.state.lock();
                    if !Self::observe_epoch(&mut st, src, epoch_field, self.module) {
                        return;
                    }
                    let cfg = self.cfg;
                    // Idempotent on duplicates: re-pruning below cum and
                    // re-sending the burst/ack is harmless.
                    let burst = Self::resync_send_side(&mut st.peers[src], cum, &cfg);
                    self.poke(&st, src);
                    (burst, st.my_epoch)
                };
                self.transport.send_framed(
                    src,
                    channel,
                    0,
                    restart_ack_header(epoch_field),
                    Bytes::new(),
                    0,
                );
                self.burst(src, burst_epoch, burst);
            }
            FRAME_RESTART_ACK => {
                let mut st = self.state.lock();
                if epoch_field == st.my_epoch {
                    let peer = &mut st.peers[src];
                    peer.restart_pending = false;
                    peer.restart_deadline = None;
                }
            }
            FRAME_CKPT if hdr.len() >= 13 => {
                let watermark = rd_u64(&hdr, 5);
                let mut st = self.state.lock();
                if !Self::observe_epoch(&mut st, src, epoch_field, self.module) {
                    return;
                }
                // Frames below the watermark are inside the peer's durable
                // snapshot: a restart can never need them again.
                let peer = &mut st.peers[src];
                peer.log = peer.log.split_off(&watermark);
            }
            _ => {}
        }
    }

    /// Retransmits a resync burst in sequence order (outside the lock),
    /// rebuilding each DATA header under `epoch` — zero payload copies.
    fn burst(self: &Arc<Self>, dst: Rank, epoch: u32, frames: Vec<(u64, StoredFrame)>) {
        if frames.is_empty() {
            return;
        }
        for (seq, (channel, tag, payload, span)) in frames {
            self.retries.fetch_add(1, Ordering::Relaxed);
            self.payload_copies_avoided.fetch_add(1, Ordering::Relaxed);
            self.transport.send_framed(
                dst,
                channel,
                tag,
                data_header(epoch, seq, None),
                payload,
                span,
            );
        }
    }

    fn ensure_retry_thread(self: &Arc<Self>) {
        // One load on every send and received frame; the swap elects the
        // single spawner.
        if self.retry_running.load(Ordering::Acquire)
            || self.retry_running.swap(true, Ordering::AcqRel)
        {
            return;
        }
        let weak = Arc::downgrade(self);
        // Engine stop must wake the retry/flush thread immediately: its
        // condvar wait can be a full backoff period long, and a stopped
        // wire will never ack it awake.
        {
            let weak = weak.clone();
            self.transport.engine().on_stop(move || {
                if let Some(me) = weak.upgrade() {
                    me.cond.notify_all();
                    me.drained.notify_all();
                }
            });
        }
        std::thread::Builder::new()
            .name(format!("hiper-rel-{}", self.transport.rank()))
            .spawn(move || retry_loop(weak))
            .expect("failed to spawn reliable-retry thread");
    }
}

/// Delivers decoded messages to the inner handler, each under its own
/// causal span (a jumbo carrier arrives with span 0; a drained hold-back
/// frame's span differs from the frame that unblocked it).
fn deliver(inner: &Handler, msgs: Vec<Message>) {
    for m in msgs {
        let prev = hiper_trace::set_current_task(m.span);
        inner(m);
        hiper_trace::set_current_task(prev);
    }
}

fn rd_u32(buf: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(buf[at..at + 4].try_into().unwrap())
}

fn rd_u64(buf: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(buf[at..at + 8].try_into().unwrap())
}

fn data_header(epoch: u32, seq: u64, ack: Option<(u32, u64)>) -> Bytes {
    let mut buf = Vec::with_capacity(26);
    buf.push(FRAME_DATA);
    buf.extend_from_slice(&epoch.to_le_bytes());
    buf.extend_from_slice(&seq.to_le_bytes());
    push_ack(&mut buf, ack);
    Bytes::from(buf)
}

fn jumbo_header(epoch: u32, count: u16, ack: Option<(u32, u64)>) -> Bytes {
    let mut buf = Vec::with_capacity(20);
    buf.push(FRAME_JUMBO);
    buf.extend_from_slice(&epoch.to_le_bytes());
    buf.extend_from_slice(&count.to_le_bytes());
    push_ack(&mut buf, ack);
    Bytes::from(buf)
}

fn push_ack(buf: &mut Vec<u8>, ack: Option<(u32, u64)>) {
    match ack {
        Some((data_epoch, cum)) => {
            buf.push(1);
            buf.extend_from_slice(&data_epoch.to_le_bytes());
            buf.extend_from_slice(&cum.to_le_bytes());
        }
        None => buf.push(0),
    }
}

fn ack_header(data_epoch: u32, acker_epoch: u32, cum: u64) -> Bytes {
    let mut buf = Vec::with_capacity(17);
    buf.push(FRAME_ACK);
    buf.extend_from_slice(&data_epoch.to_le_bytes());
    buf.extend_from_slice(&acker_epoch.to_le_bytes());
    buf.extend_from_slice(&cum.to_le_bytes());
    Bytes::from(buf)
}

fn restart_header(epoch: u32, cum: u64) -> Bytes {
    let mut buf = Vec::with_capacity(13);
    buf.push(FRAME_RESTART);
    buf.extend_from_slice(&epoch.to_le_bytes());
    buf.extend_from_slice(&cum.to_le_bytes());
    Bytes::from(buf)
}

fn restart_ack_header(epoch: u32) -> Bytes {
    let mut buf = Vec::with_capacity(5);
    buf.push(FRAME_RESTART_ACK);
    buf.extend_from_slice(&epoch.to_le_bytes());
    Bytes::from(buf)
}

fn ckpt_header(epoch: u32, watermark: u64) -> Bytes {
    let mut buf = Vec::with_capacity(13);
    buf.push(FRAME_CKPT);
    buf.extend_from_slice(&epoch.to_le_bytes());
    buf.extend_from_slice(&watermark.to_le_bytes());
    Bytes::from(buf)
}

/// One pass of the per-endpoint retry thread, which doubles as the
/// *flusher*: besides retransmitting head-of-line frames whose deadline
/// passed and re-sending unacknowledged `RESTART` announcements, it drains
/// staged coalescing queues and flushes owed standalone acks when their
/// (µs-scale) deadlines arrive.
///
/// If anything was due, the pass ships it outside the state lock and
/// returns without sleeping, so the next pass re-scans: a deadline armed
/// while the lock was dropped is never slept through. Otherwise it publishes
/// the earliest deadline it found and sleeps toward it in the same critical
/// section as the scan; whoever then arms an earlier one sees the published
/// target and pokes it (see [`ReliableTransport::poke`]). Quiesce
/// release, restart and engine stop poke it unconditionally.
fn flusher_pass(me: &ReliableTransport) {
    let now = Instant::now();
    #[allow(clippy::type_complexity)]
    let mut resend: Vec<(Rank, Channel, u64, Bytes, Bytes, u64, u32, u64)> = Vec::new();
    let mut control: Vec<(Rank, Channel, Bytes)> = Vec::new();
    let mut flushed: Vec<Out> = Vec::new();
    let mut wait = Duration::from_millis(20);
    let mut st = me.state.lock();
    let my_epoch = st.my_epoch;
    let control_channel = st.channels.first().copied();
    let mut newly_dead: Option<(Rank, u32)> = None;
    let mut peers = std::mem::take(&mut st.peers);
    for (dst, peer) in peers.iter_mut().enumerate() {
        if peer.quiesced {
            continue;
        }
        // Unacked RESTART announcements get their own resend loop:
        // the epoch handshake must survive drop injection.
        if peer.restart_pending {
            if let (Some(deadline), Some(channel)) = (peer.restart_deadline, control_channel) {
                if deadline <= now {
                    if peer.restart_attempts >= me.cfg.max_attempts {
                        peer.restart_pending = false;
                        peer.restart_deadline = None;
                    } else {
                        peer.restart_attempts += 1;
                        peer.restart_deadline = Some(now + me.cfg.timeout);
                        wait = wait.min(me.cfg.timeout);
                        control.push((dst, channel, restart_header(my_epoch, peer.restart_cum)));
                    }
                } else {
                    wait = wait.min(deadline - now);
                }
            }
        }
        // Staged-coalescing flush deadline.
        if let Some(deadline) = peer.stage_deadline {
            if deadline <= now {
                flushed.extend(me.drain_staged(peer, my_epoch, dst));
            } else {
                wait = wait.min(deadline - now);
            }
        }
        // Owed-ack flush deadline.
        if let Some(deadline) = peer.ack_deadline {
            if deadline <= now {
                if let (Some((data_epoch, cum)), Some(channel)) = (peer.take_ack(), control_channel)
                {
                    me.acks_flushed.fetch_add(1, Ordering::Relaxed);
                    control.push((dst, channel, ack_header(data_epoch, my_epoch, cum)));
                }
            } else {
                wait = wait.min(deadline - now);
            }
        }
        let deadline = match peer.head_deadline {
            Some(d) if !peer.dead => d,
            _ => continue,
        };
        if deadline > now {
            wait = wait.min(deadline - now);
            continue;
        }
        if peer.head_attempts >= me.cfg.max_attempts {
            peer.dead = true;
            peer.unacked.clear();
            peer.log.clear();
            peer.clear_stage();
            peer.head_deadline = None;
            newly_dead = Some((dst, peer.head_attempts));
            continue;
        }
        let (&seq, (channel, tag, payload, span)) =
            peer.unacked.iter().next().expect("deadline without frame");
        peer.head_attempts += 1;
        peer.head_timeout = Duration::from_secs_f64(
            (peer.head_timeout.as_secs_f64() * me.cfg.backoff)
                .min(me.cfg.max_timeout.as_secs_f64()),
        );
        peer.head_deadline = Some(now + peer.head_timeout);
        wait = wait.min(peer.head_timeout);
        resend.push((
            dst,
            *channel,
            *tag,
            data_header(my_epoch, seq, None),
            payload.clone(),
            seq,
            peer.head_attempts,
            *span,
        ));
    }
    st.peers = peers;
    if let Some((dst, attempts)) = newly_dead {
        let err = ModuleError::unreachable(me.module, dst, attempts);
        eprintln!("[hiper-netsim] {}", err);
        if st.error.is_none() {
            st.error = Some(err);
        }
    }
    if flushed.is_empty() && control.is_empty() && resend.is_empty() {
        st.sleeping_until = Some(now + wait);
        me.cond.wait_for(&mut st, wait);
        st.sleeping_until = None;
        me.flusher_wakeups.fetch_add(1, Ordering::Relaxed);
        return;
    }
    drop(st);
    me.ship(flushed);
    for (dst, channel, header) in control {
        me.transport
            .send_framed(dst, channel, 0, header, Bytes::new(), 0);
    }
    for (dst, channel, tag, header, payload, seq, attempt, span) in resend {
        me.retries.fetch_add(1, Ordering::Relaxed);
        me.payload_copies_avoided.fetch_add(1, Ordering::Relaxed);
        if hiper_metrics::enabled() {
            hiper_metrics::counter("hiper_reliable_retransmits_total").inc();
        }
        if hiper_trace::enabled() {
            hiper_trace::emit(
                EventKind::RelRetry,
                ((me.transport.rank() as u64) << 32) | dst as u64,
                seq,
                attempt as u64,
            );
        }
        me.transport
            .send_framed(dst, channel, tag, header, payload, span);
    }
}

/// The per-endpoint retry/flush thread. Exits when the owning
/// [`ReliableTransport`] is dropped or the cluster's delivery engine stops
/// (a stopped wire can never ack, so retrying against it only burns CPU and
/// spams `Unreachable` errors).
fn retry_loop(weak: Weak<ReliableTransport>) {
    // The coalesce and ack deadlines are ~100 µs; default timer slack
    // would add about half again to every one of them.
    hiper_trace::clock::precise_timers();
    while let Some(me) = weak.upgrade() {
        if me.transport.engine().is_stopped() {
            return;
        }
        flusher_pass(&me);
    }
}

impl std::fmt::Debug for ReliableTransport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReliableTransport")
            .field("module", &self.module)
            .field("rank", &self.transport.rank())
            .field("enabled", &self.enabled)
            .field("epoch", &self.epoch())
            .field("retries", &self.retry_count())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Cluster, FaultPlan, NetConfig};
    use std::sync::atomic::AtomicUsize;

    /// Two armed (perturbation-free) endpoints with the given ack delay
    /// (set here because the env knob races across parallel tests) and
    /// retransmits pushed out of the picture. Returns the cluster, both
    /// endpoints and a counter of frames delivered at rank 1.
    #[allow(clippy::type_complexity)]
    fn armed_pair(
        ack_delay: Duration,
    ) -> (
        Cluster,
        Arc<ReliableTransport>,
        Arc<ReliableTransport>,
        Arc<AtomicUsize>,
    ) {
        let plan = FaultPlan::seeded(7).arm();
        let cluster = Cluster::start_with_faults(2, NetConfig::instant(), Some(plan));
        let cfg = RetryConfig {
            timeout: Duration::from_millis(500),
            max_timeout: Duration::from_millis(500),
            ..RetryConfig::default()
        };
        let endpoint = |rank| {
            let mut t = ReliableTransport::new(cluster.transport(rank), "test", cfg);
            Arc::get_mut(&mut t)
                .expect("no other handle exists yet")
                .ack_delay = ack_delay;
            t
        };
        let (a, b) = (endpoint(0), endpoint(1));
        a.register_handler(Channel::APP, Box::new(|_| {}));
        let delivered = Arc::new(AtomicUsize::new(0));
        let d2 = Arc::clone(&delivered);
        b.register_handler(
            Channel::APP,
            Box::new(move |_| {
                d2.fetch_add(1, Ordering::SeqCst);
            }),
        );
        (cluster, a, b, delivered)
    }

    fn spin_until<T>(mut probe: impl FnMut() -> Option<T>) -> T {
        let give_up = Instant::now() + Duration::from_secs(10);
        loop {
            if let Some(v) = probe() {
                return v;
            }
            assert!(Instant::now() < give_up, "condition never became true");
            std::thread::yield_now();
        }
    }

    /// The flusher used to compute its sleep under the state lock, drop the
    /// lock to ship what was due, re-lock and sleep the stale amount: an ack
    /// deadline armed in that gap was slept through (up to the 20 ms idle
    /// tick). Drive rank 1's flusher by hand so the gap is exact: pass 1 has
    /// an ack due and ships it; the next frame arrives right after — in the
    /// gap — and its ack must be out within 2x the ack delay of being owed.
    /// The bound is checked on the sleep target pass 2 *publishes* (at most
    /// the new deadline, which is one delay after the ack was owed), not on
    /// the wall clock: on a shared 2-core box that would time the OS
    /// scheduler, not the flusher.
    #[test]
    fn ack_deadline_armed_while_flusher_ships_is_not_slept_through() {
        let delay = Duration::from_micros(100);
        let (cluster, a, b, _) = armed_pair(delay);
        // Claim rank 1's flusher thread before it can spawn: this test is
        // that thread.
        b.retry_running.store(true, Ordering::Release);
        let ack_deadline = |b: &ReliableTransport| b.state.lock().peers[0].ack_deadline;

        a.send(1, Channel::APP, 0, Bytes::from_static(&[0u8; 16]));
        let d1 = spin_until(|| ack_deadline(&b));
        std::thread::sleep(d1.saturating_duration_since(Instant::now()));
        flusher_pass(&b);
        assert_eq!(b.stats().acks_flushed, 1, "the due ack ships in pass 1");
        assert_eq!(
            b.stats().flusher_wakeups,
            0,
            "a pass that shipped returns to re-scan instead of sleeping"
        );

        // The gap: pass 1 is over, the flusher has not looked again yet.
        a.send(1, Channel::APP, 1, Bytes::from_static(&[1u8; 16]));
        let d2 = spin_until(|| ack_deadline(&b));
        let flusher = {
            let b = Arc::clone(&b);
            std::thread::spawn(move || {
                while b.stats().acks_flushed < 2 {
                    flusher_pass(&b);
                }
            })
        };
        // Every sleep the flusher takes before the ack is out aims at (or
        // before) the deadline armed in the gap.
        while !flusher.is_finished() {
            if let Some(target) = b.state.lock().sleeping_until {
                assert!(target <= d2 || b.stats().acks_flushed == 2);
            }
            std::thread::yield_now();
        }
        flusher.join().unwrap();
        cluster.stop();
    }

    /// Fault-free armed flood, rank 0 -> rank 1: nothing is retransmitted
    /// (every owed ack went out well inside the 2 ms retransmit timer; the
    /// test above pins the tighter per-deadline bound), and the flusher
    /// threads sleep through the flood instead of being poked by every
    /// frame.
    #[test]
    fn fault_free_flood_keeps_acks_timely_and_flushers_asleep() {
        const FRAMES: usize = 10_000;
        let (cluster, a, b, delivered) = armed_pair(Duration::from_micros(100));
        for i in 0..FRAMES {
            a.send(1, Channel::APP, i as u64, Bytes::from_static(&[7u8; 16]));
        }
        assert!(a.flush(Duration::from_secs(30)), "flood never drained");
        assert_eq!(delivered.load(Ordering::SeqCst), FRAMES);
        let (sa, sb) = (a.stats(), b.stats());
        assert_eq!(sa.retries + sb.retries, 0, "{sa} / {sb}");
        let wakeups = sa.flusher_wakeups + sb.flusher_wakeups;
        assert!(
            (wakeups as f64) < 0.1 * FRAMES as f64,
            "flushers woke {wakeups} times for {FRAMES} frames: {sa} / {sb}"
        );
        assert!(sa.flusher_pokes_suppressed > 0, "{sa}");
        cluster.stop();
    }
}
