//! Per-thread lock-free event ring buffers.
//!
//! Each emitting thread owns one fixed-capacity ring. The owning thread is
//! the *only* writer; the collector reads concurrently. Slots hold the five
//! words of a [`TraceEvent`] as relaxed atomics (so concurrent reads are
//! race-free in the memory-model sense), and the write cursor counts total
//! events ever written: publishing is a single `Release` store of
//! `head + 1`, with no RMW and no fence on the emit path.
//!
//! On wrap the writer overwrites the oldest slot — *drop-oldest* semantics.
//! The collector computes how many events fell off the back since its last
//! drain and surfaces that as a dropped-events counter rather than silently
//! pretending the trace is complete. If the writer laps the collector
//! *during* a drain, an event read from the contested window may mix words
//! of two events; drains happen at shutdown or between phases in practice,
//! so the window is empty there, and the slot-atomics guarantee this is at
//! worst a garbled event, never undefined behavior.

use std::sync::atomic::{AtomicU64, Ordering};

/// What happened. Discriminants are stable (they appear raw in ring slots).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum EventKind {
    /// A task was created. `a` = task id, `b` = parent task id (0 = none),
    /// `c` = place index.
    TaskSpawn = 1,
    /// A task started executing. `a` = task id, `c` = place index.
    TaskBegin = 2,
    /// A task finished executing. `a` = task id.
    TaskEnd = 3,
    /// A worker popped from its own deque. `a` = task id, `b` = place index.
    Pop = 4,
    /// A worker stole from another worker's deque. `a` = task id,
    /// `b` = victim worker, `c` = place index.
    Steal = 5,
    /// A successful steal banked extra tasks in the thief's home deque.
    /// `a` = tasks banked (lower bound).
    BatchSteal = 6,
    /// A worker drained a place injector. `a` = task id, `b` = place index.
    InjectorDrain = 7,
    /// A worker parked (begin of an idle span).
    Park = 8,
    /// A worker unparked (end of the idle span). `a` = 1 if explicitly
    /// woken, 0 on timeout.
    Unpark = 9,
    /// Entry into a pluggable module's API. `a` = interned module name,
    /// `b` = interned op name (0 = unspecified), `c` = payload bytes.
    ModuleEnter = 10,
    /// Exit from a module API. `a`/`b` as in `ModuleEnter`.
    ModuleExit = 11,
    /// A simulated-network message was injected. `a` = src<<32|dst,
    /// `b` = wire bytes, `c` = modeled delay in ns.
    NetSend = 12,
    /// A simulated-network message was delivered. `a` = src<<32|dst,
    /// `b` = wire bytes.
    NetDeliver = 13,
    /// A simulated-network message was dropped by fault injection (or a
    /// panicking handler). `a` = src<<32|dst, `b` = wire bytes, `c` = cause
    /// (1 = random drop, 2 = partition/kill window, 3 = handler panic).
    NetDrop = 14,
    /// Fault injection delivered an extra copy of a message.
    /// `a` = src<<32|dst, `b` = wire bytes.
    NetDup = 15,
    /// A reliable transport retransmitted an unacked frame.
    /// `a` = src<<32|dst, `b` = frame sequence number, `c` = attempt count.
    RelRetry = 16,
    /// A task panicked and poisoned its finish scope. `a` = task id
    /// (0 when spawned untraced), `b` = place index.
    TaskPanic = 17,
    /// Causal edge: a message left a rank carrying a span. `a` = parent
    /// span id (trace id of the sending task, 0 = untraced), `b` =
    /// src<<32|dst, `c` = globally unique message id. Emitted with the
    /// same timestamp as the adjacent `NetSend`.
    MsgSend = 18,
    /// Causal edge: the message arrived. `a` = parent span id, `b` =
    /// src<<32|dst, `c` = the matching `MsgSend` message id. Timestamped
    /// at the modeled due time, so deliver ts = send ts + modeled delay.
    MsgDeliver = 19,
    /// A simulated rank went down (supervised kill or detected failure).
    /// `a` = rank, `b` = reserved (0).
    RankDown = 20,
    /// A previously-down rank came back after recovery. `a` = rank,
    /// `b` = new reliable-transport epoch (0 when unknown).
    RankRestored = 21,
}

impl EventKind {
    /// Decodes a raw discriminant (drain path). `None` for a garbled slot.
    pub fn from_u64(v: u64) -> Option<EventKind> {
        use EventKind::*;
        Some(match v {
            1 => TaskSpawn,
            2 => TaskBegin,
            3 => TaskEnd,
            4 => Pop,
            5 => Steal,
            6 => BatchSteal,
            7 => InjectorDrain,
            8 => Park,
            9 => Unpark,
            10 => ModuleEnter,
            11 => ModuleExit,
            12 => NetSend,
            13 => NetDeliver,
            14 => NetDrop,
            15 => NetDup,
            16 => RelRetry,
            17 => TaskPanic,
            18 => MsgSend,
            19 => MsgDeliver,
            20 => RankDown,
            21 => RankRestored,
            _ => return None,
        })
    }

    /// Stable lowercase name (report keys).
    pub fn name(self) -> &'static str {
        use EventKind::*;
        match self {
            TaskSpawn => "task_spawn",
            TaskBegin => "task_begin",
            TaskEnd => "task_end",
            Pop => "pop",
            Steal => "steal",
            BatchSteal => "batch_steal",
            InjectorDrain => "injector_drain",
            Park => "park",
            Unpark => "unpark",
            ModuleEnter => "module_enter",
            ModuleExit => "module_exit",
            NetSend => "net_send",
            NetDeliver => "net_deliver",
            NetDrop => "net_drop",
            NetDup => "net_dup",
            RelRetry => "rel_retry",
            TaskPanic => "task_panic",
            MsgSend => "msg_send",
            MsgDeliver => "msg_deliver",
            RankDown => "rank_down",
            RankRestored => "rank_restored",
        }
    }
}

/// One structured, timestamped event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Nanoseconds since the trace epoch ([`crate::clock`]).
    pub ts_ns: u64,
    /// What happened.
    pub kind: EventKind,
    /// Kind-specific payload; see [`EventKind`] docs.
    pub a: u64,
    /// Kind-specific payload.
    pub b: u64,
    /// Kind-specific payload.
    pub c: u64,
}

/// Words per slot: ts, kind, a, b, c.
const SLOT_WORDS: usize = 5;

#[derive(Default)]
struct Slot([AtomicU64; SLOT_WORDS]);

/// Pads the write cursor to its own cache line so the collector's reads
/// never contend with a neighbouring ring's cursor.
#[repr(align(128))]
struct PaddedCursor(AtomicU64);

/// A single-writer, fixed-capacity, drop-oldest event ring.
pub struct EventRing {
    label: String,
    mask: u64,
    slots: Box<[Slot]>,
    /// Total events ever written (not an index); slot = head & mask.
    head: PaddedCursor,
}

impl EventRing {
    /// Creates a ring holding `capacity` events (rounded up to a power of
    /// two, minimum 8).
    pub fn with_capacity(label: impl Into<String>, capacity: usize) -> EventRing {
        let cap = capacity.max(8).next_power_of_two();
        EventRing {
            label: label.into(),
            mask: (cap - 1) as u64,
            slots: (0..cap).map(|_| Slot::default()).collect(),
            head: PaddedCursor(AtomicU64::new(0)),
        }
    }

    /// The ring's label (usually the owning thread's name).
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Capacity in events.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Total events ever written.
    pub fn written(&self) -> u64 {
        self.head.0.load(Ordering::Acquire)
    }

    /// Records one event. MUST only be called by the ring's owning thread
    /// (single-writer invariant); the global tracer guarantees this by
    /// handing each thread its own ring.
    #[inline]
    pub fn emit(&self, e: TraceEvent) {
        let h = self.head.0.load(Ordering::Relaxed);
        let slot = &self.slots[(h & self.mask) as usize];
        slot.0[0].store(e.ts_ns, Ordering::Relaxed);
        slot.0[1].store(e.kind as u64, Ordering::Relaxed);
        slot.0[2].store(e.a, Ordering::Relaxed);
        slot.0[3].store(e.b, Ordering::Relaxed);
        slot.0[4].store(e.c, Ordering::Relaxed);
        self.head.0.store(h + 1, Ordering::Release);
    }

    /// Reads every event written since `read_pos` (a cursor value returned
    /// by a previous call, 0 initially). Returns `(events, new_read_pos,
    /// dropped)`, where `dropped` counts events overwritten before they
    /// could be read. Garbled slots (writer lapped us mid-drain) are
    /// skipped and counted as dropped.
    pub fn drain_from(&self, read_pos: u64) -> (Vec<TraceEvent>, u64, u64) {
        let head = self.head.0.load(Ordering::Acquire);
        let cap = self.slots.len() as u64;
        let start = read_pos.max(head.saturating_sub(cap));
        let mut dropped = start - read_pos;
        let mut events = Vec::with_capacity((head - start) as usize);
        for i in start..head {
            let slot = &self.slots[(i & self.mask) as usize];
            let ts = slot.0[0].load(Ordering::Relaxed);
            let kind = slot.0[1].load(Ordering::Relaxed);
            let a = slot.0[2].load(Ordering::Relaxed);
            let b = slot.0[3].load(Ordering::Relaxed);
            let c = slot.0[4].load(Ordering::Relaxed);
            match EventKind::from_u64(kind) {
                Some(kind) => events.push(TraceEvent {
                    ts_ns: ts,
                    kind,
                    a,
                    b,
                    c,
                }),
                None => dropped += 1,
            }
        }
        (events, head, dropped)
    }
}

impl std::fmt::Debug for EventRing {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventRing")
            .field("label", &self.label)
            .field("capacity", &self.capacity())
            .field("written", &self.written())
            .finish()
    }
}

/// Builds an event in unit tests.
#[cfg(test)]
pub(crate) fn ev(ts_ns: u64, kind: EventKind, a: u64, b: u64, c: u64) -> TraceEvent {
    TraceEvent {
        ts_ns,
        kind,
        a,
        b,
        c,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(kind: EventKind, a: u64) -> TraceEvent {
        TraceEvent {
            ts_ns: a,
            kind,
            a,
            b: 0,
            c: 0,
        }
    }

    #[test]
    fn capacity_rounds_to_power_of_two() {
        assert_eq!(EventRing::with_capacity("x", 0).capacity(), 8);
        assert_eq!(EventRing::with_capacity("x", 9).capacity(), 16);
        assert_eq!(EventRing::with_capacity("x", 64).capacity(), 64);
    }

    #[test]
    fn emit_and_drain_in_order() {
        let ring = EventRing::with_capacity("t", 16);
        for i in 0..10 {
            ring.emit(ev(EventKind::Pop, i));
        }
        let (events, pos, dropped) = ring.drain_from(0);
        assert_eq!(events.len(), 10);
        assert_eq!(pos, 10);
        assert_eq!(dropped, 0);
        assert!(events.iter().enumerate().all(|(i, e)| e.a == i as u64));
        // Incremental drain picks up only the new tail.
        ring.emit(ev(EventKind::Steal, 99));
        let (events, pos, dropped) = ring.drain_from(pos);
        assert_eq!((events.len(), pos, dropped), (1, 11, 0));
        assert_eq!(events[0].kind, EventKind::Steal);
    }
}
