//! The underlying OpenSHMEM library (the role Cray SHMEM plays in the
//! paper): one-sided put/get, remote atomics, point-to-point synchronization
//! (`wait_until`), `quiet`, and the collective calls the benchmarks use.
//!
//! Remote operations are active messages executed *at the target's heap* by
//! the delivery engine — the target's compute threads are never involved,
//! modeling RDMA. Per-pair FIFO delivery gives OpenSHMEM's put-ordering
//! guarantees, and `quiet` is an acknowledged no-op that flushes each dirty
//! link.
//!
//! Blocking calls park the calling OS thread (what the paper's flat-SHMEM
//! baselines pay); the HiPER module in [`crate::module`] wraps these
//! primitives in tasks and futures.

use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use bytes::{BufMut, Bytes, BytesMut};
use hiper_netsim::collective::{self, CollLink};
use hiper_netsim::{Channel, Message, Rank, ReliableTransport, RetryConfig, Transport};
use hiper_runtime::ModuleError;
use parking_lot::{Condvar, Mutex};

use crate::heap::{SymHeap, SymPtr};

/// Comparison operators for `wait_until` / `async_when` (OpenSHMEM
/// `SHMEM_CMP_*`), evaluated on signed 64-bit values.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cmp {
    Eq,
    Ne,
    Gt,
    Ge,
    Lt,
    Le,
}

impl Cmp {
    /// Evaluates `lhs <cmp> rhs`.
    pub fn eval(self, lhs: i64, rhs: i64) -> bool {
        match self {
            Cmp::Eq => lhs == rhs,
            Cmp::Ne => lhs != rhs,
            Cmp::Gt => lhs > rhs,
            Cmp::Ge => lhs >= rhs,
            Cmp::Lt => lhs < rhs,
            Cmp::Le => lhs <= rhs,
        }
    }
}

// Wire opcodes (tag bits 56..64).
mod op {
    pub const PUT: u8 = 1;
    pub const GET_REQ: u8 = 2;
    pub const GET_REP: u8 = 3;
    pub const AMO_REQ: u8 = 4;
    pub const AMO_REP: u8 = 5;
    pub const ACK_REQ: u8 = 6;
    pub const ACK_REP: u8 = 7;
    pub const COLL: u8 = 8;
}

// Atomic sub-opcodes (tag bits 48..56 of AMO_REQ).
mod amo {
    pub const FADD: u8 = 1;
    pub const CSWAP: u8 = 2;
}

/// Opcodes 1-3 are the tree collectives of [`hiper_netsim::collective`].
mod collop {
    pub const ALLTOALL: u8 = 4;
}

fn tag(opcode: u8, aux: u8, low: u64) -> u64 {
    ((opcode as u64) << 56) | ((aux as u64) << 48) | (low & 0xFFFF_FFFF_FFFF)
}

fn tag_opcode(t: u64) -> u8 {
    (t >> 56) as u8
}

fn tag_aux(t: u64) -> u8 {
    (t >> 48) as u8
}

fn tag_low(t: u64) -> u64 {
    t & 0xFFFF_FFFF_FFFF
}

fn coll_tag(cop: u8, round: u8, seq: u64) -> u64 {
    tag(
        op::COLL,
        cop,
        ((round as u64) << 40) | (seq & 0xFF_FFFF_FFFF),
    )
}

/// One-shot reply slot: completed exactly once with the reply payload;
/// consumers either block (`wait`) or attach a callback.
pub(crate) struct OneShot {
    state: Mutex<OneShotState>,
    cond: Condvar,
}

enum OneShotState {
    Waiting(Option<Box<dyn FnOnce(Bytes) + Send>>),
    Done(Bytes),
}

impl OneShot {
    fn new() -> Arc<OneShot> {
        Arc::new(OneShot {
            state: Mutex::new(OneShotState::Waiting(None)),
            cond: Condvar::new(),
        })
    }

    fn with_callback(cb: Box<dyn FnOnce(Bytes) + Send>) -> Arc<OneShot> {
        Arc::new(OneShot {
            state: Mutex::new(OneShotState::Waiting(Some(cb))),
            cond: Condvar::new(),
        })
    }

    fn complete(&self, data: Bytes) {
        let mut st = self.state.lock();
        match std::mem::replace(&mut *st, OneShotState::Done(data.clone())) {
            OneShotState::Waiting(Some(cb)) => {
                drop(st);
                cb(data);
            }
            OneShotState::Waiting(None) => {
                self.cond.notify_all();
            }
            OneShotState::Done(_) => panic!("reply slot completed twice"),
        }
    }

    fn wait(&self) -> Bytes {
        let mut st = self.state.lock();
        loop {
            if let OneShotState::Done(data) = &*st {
                return data.clone();
            }
            self.cond.wait(&mut st);
        }
    }
}

/// A registered `async_when` predicate.
struct WhenEntry {
    offset: usize,
    cmp: Cmp,
    value: i64,
    fire: Option<Box<dyn FnOnce() + Send>>,
}

/// Cluster-wide shared symmetric heaps. Create one per cluster, clone into
/// each rank's setup.
#[derive(Clone)]
pub struct ShmemWorld {
    heaps: Arc<Vec<Arc<SymHeap>>>,
}

impl ShmemWorld {
    /// Allocates `nranks` heaps of `heap_bytes` each.
    pub fn new(nranks: usize, heap_bytes: usize) -> ShmemWorld {
        ShmemWorld {
            heaps: Arc::new(
                (0..nranks)
                    .map(|_| Arc::new(SymHeap::new(heap_bytes)))
                    .collect(),
            ),
        }
    }

    /// The heap of `rank`.
    pub fn heap(&self, rank: Rank) -> &Arc<SymHeap> {
        &self.heaps[rank]
    }

    /// Number of ranks.
    pub fn nranks(&self) -> usize {
        self.heaps.len()
    }
}

/// One rank's endpoint of the raw SHMEM library.
///
/// Traffic is routed through a [`ReliableTransport`]: a pass-through with
/// no armed fault plan, acked/retransmitted/resequenced delivery under
/// fault injection (put-ordering survives drops and reordering).
pub struct RawShmem {
    world: ShmemWorld,
    transport: Arc<ReliableTransport>,
    alloc_next: Mutex<usize>,
    slots: Mutex<HashMap<u64, Arc<OneShot>>>,
    next_slot: AtomicU64,
    dirty: Mutex<HashSet<Rank>>,
    /// Local-change notification: epoch bumped whenever this rank's heap is
    /// mutated by a remote op (or an explicit signalled local store).
    change_epoch: Mutex<u64>,
    change_cond: Condvar,
    whens: Mutex<Vec<WhenEntry>>,
    coll: Mutex<HashMap<(Rank, u64), VecDeque<Bytes>>>,
    coll_cond: Condvar,
    coll_seq: AtomicU64,
    /// First wire-protocol violation seen by the delivery handler (malformed
    /// frame, unknown opcode). The frame is dropped, not panicked on; the
    /// error surfaces through [`health`](RawShmem::health).
    wire_error: Mutex<Option<ModuleError>>,
}

impl RawShmem {
    /// Creates the endpoint and registers its delivery handler.
    pub fn new(world: ShmemWorld, transport: Transport) -> Arc<RawShmem> {
        assert_eq!(
            world.nranks(),
            transport.nranks(),
            "world size must match cluster size"
        );
        let rel = ReliableTransport::new(transport, "shmem", RetryConfig::default());
        let raw = Arc::new(RawShmem {
            world,
            transport: rel,
            alloc_next: Mutex::new(0),
            slots: Mutex::new(HashMap::new()),
            next_slot: AtomicU64::new(1),
            dirty: Mutex::new(HashSet::new()),
            change_epoch: Mutex::new(0),
            change_cond: Condvar::new(),
            whens: Mutex::new(Vec::new()),
            coll: Mutex::new(HashMap::new()),
            coll_cond: Condvar::new(),
            coll_seq: AtomicU64::new(0),
            wire_error: Mutex::new(None),
        });
        let raw2 = Arc::clone(&raw);
        raw.transport
            .register_handler(Channel::SHMEM, Box::new(move |m| raw2.on_message(m)));
        raw
    }

    /// Endpoint health: `Err` once any peer has exhausted its reliable
    /// retry budget (fault injection only) or the delivery handler has
    /// dropped a malformed wire frame.
    pub fn health(&self) -> Result<(), ModuleError> {
        if let Some(e) = self.wire_error.lock().clone() {
            return Err(e);
        }
        self.transport.health()
    }

    /// Records a wire-protocol violation (first one wins) instead of
    /// panicking the delivery-engine thread; the offending frame is dropped.
    fn wire_fault(&self, detail: String) {
        let mut slot = self.wire_error.lock();
        if slot.is_none() {
            *slot = Some(ModuleError::protocol("shmem", detail));
        }
    }

    /// The underlying reliable transport. Recovery drivers use this to
    /// quiesce peers, renegotiate epochs after a restart, and publish
    /// checkpoint watermarks for replay-log garbage collection.
    pub fn reliable(&self) -> &Arc<ReliableTransport> {
        &self.transport
    }

    /// Serializes this endpoint's private (non-heap) mutable state for a
    /// checkpoint: the symmetric-allocator bump pointer, the collective
    /// sequence counter, and the *pending-recv* buffers — contributions
    /// already delivered by peers for collectives this rank has not
    /// consumed yet (a fast peer past a barrier may have sent its
    /// next-collective contribution before our snapshot). Omitting those
    /// would lose them forever: their frames sit below the reliable-
    /// transport recv watermark and are never redelivered on restart.
    ///
    /// Victim-side in-flight bookkeeping (one-shot completion slots,
    /// `when` registrations, dirty-rank marks) is *not* captured: at a
    /// checkpoint's quiescent point (post-barrier, post-quiet) this rank
    /// has no outstanding issued ops, and a crash discards anything that
    /// appeared since — [`restore_state`](RawShmem::restore_state) clears
    /// it.
    pub fn state_snapshot(&self) -> Vec<u8> {
        let coll = self.coll.lock();
        let mut entries: Vec<(&(Rank, u64), &VecDeque<Bytes>)> = coll.iter().collect();
        entries.sort_by_key(|(k, _)| **k); // deterministic image
        let mut out = Vec::with_capacity(64);
        out.extend_from_slice(&(*self.alloc_next.lock() as u64).to_le_bytes());
        out.extend_from_slice(&self.coll_seq.load(Ordering::SeqCst).to_le_bytes());
        out.extend_from_slice(&(entries.len() as u64).to_le_bytes());
        for ((rank, seq), msgs) in entries {
            out.extend_from_slice(&(*rank as u64).to_le_bytes());
            out.extend_from_slice(&seq.to_le_bytes());
            out.extend_from_slice(&(msgs.len() as u64).to_le_bytes());
            for m in msgs {
                out.extend_from_slice(&(m.len() as u64).to_le_bytes());
                out.extend_from_slice(m);
            }
        }
        out
    }

    /// Rolls this endpoint's private state back to an image produced by
    /// [`state_snapshot`](RawShmem::state_snapshot): restores the
    /// allocator bump pointer, collective counter, and pending-recv
    /// buffers, and discards all in-flight bookkeeping accumulated since
    /// (one-shot slots, `when` registrations, dirty marks). Called on the
    /// victim rank after its heap image is restored, *before* replay
    /// re-executes the window since the checkpoint.
    pub fn restore_state(&self, image: &[u8]) {
        let rd =
            |off: usize| -> u64 { u64::from_le_bytes(image[off..off + 8].try_into().unwrap()) };
        let alloc_next = rd(0) as usize;
        let coll_seq = rd(8);
        let n_entries = rd(16);
        let mut coll_new: HashMap<(Rank, u64), VecDeque<Bytes>> = HashMap::new();
        let mut off = 24;
        for _ in 0..n_entries {
            let rank = rd(off) as Rank;
            let seq = rd(off + 8);
            let n_msgs = rd(off + 16);
            off += 24;
            let q = coll_new.entry((rank, seq)).or_default();
            for _ in 0..n_msgs {
                let len = rd(off) as usize;
                off += 8;
                q.push_back(Bytes::copy_from_slice(&image[off..off + len]));
                off += len;
            }
        }
        *self.alloc_next.lock() = alloc_next;
        self.coll_seq.store(coll_seq, Ordering::SeqCst);
        *self.coll.lock() = coll_new;
        self.slots.lock().clear();
        self.whens.lock().clear();
        self.dirty.lock().clear();
        // Wake anyone parked on heap-change or collective conditions so
        // they re-evaluate against the restored state.
        self.change_cond.notify_all();
        self.coll_cond.notify_all();
    }

    /// Retransmissions performed so far (0 without fault injection).
    pub fn retries(&self) -> u64 {
        self.transport.retry_count()
    }

    /// This rank (`shmem_my_pe`).
    pub fn rank(&self) -> Rank {
        self.transport.rank()
    }

    /// Cluster size (`shmem_n_pes`).
    pub fn nranks(&self) -> usize {
        self.transport.nranks()
    }

    /// This rank's heap (for local symmetric-object access).
    pub fn heap(&self) -> &Arc<SymHeap> {
        self.world.heap(self.rank())
    }

    /// Symmetric allocation (`shmem_malloc`): every rank must call in the
    /// same order with the same size. 16-byte aligned.
    pub fn malloc(&self, nbytes: usize) -> SymPtr {
        let mut next = self.alloc_next.lock();
        let offset = (*next + 15) & !15;
        assert!(
            offset + nbytes <= self.heap().len(),
            "symmetric heap exhausted ({} + {} > {})",
            offset,
            nbytes,
            self.heap().len()
        );
        *next = offset + nbytes;
        SymPtr {
            offset,
            len: nbytes,
        }
    }

    /// Symmetric allocation of `n` 64-bit elements.
    pub fn malloc64(&self, n: usize) -> SymPtr {
        self.malloc(n * 8)
    }

    /// Resets the symmetric allocator to `watermark` (a value previously
    /// returned by [`alloc_watermark`](Self::alloc_watermark)). For
    /// benchmark harnesses that re-run an allocation-heavy phase many times;
    /// must be called collectively (all ranks, between barriers) and
    /// invalidates every allocation made after the watermark.
    pub fn reset_alloc(&self, watermark: usize) {
        *self.alloc_next.lock() = watermark;
    }

    /// Current allocator position, for later [`reset_alloc`](Self::reset_alloc).
    pub fn alloc_watermark(&self) -> usize {
        *self.alloc_next.lock()
    }

    // ------------------------------------------------------------------
    // Message handling (runs on the delivery-engine thread)
    // ------------------------------------------------------------------

    fn on_message(&self, msg: Message) {
        let t = msg.tag;
        // Validate frame length before parsing: a truncated header must
        // drop the frame with a typed error, not panic the engine thread.
        let need = match tag_opcode(t) {
            op::PUT => 8,
            op::GET_REQ => 16,
            op::AMO_REQ => 24,
            _ => 0,
        };
        if msg.payload.len() < need {
            self.wire_fault(format!(
                "opcode {} frame from rank {} is {} bytes, need {}",
                tag_opcode(t),
                msg.src,
                msg.payload.len(),
                need
            ));
            return;
        }
        match tag_opcode(t) {
            op::PUT => {
                let (offset, data) = split_header(&msg.payload);
                self.heap().write_bytes(offset as usize, data);
                self.notify_local_change();
            }
            op::GET_REQ => {
                let mut hdr = [0u8; 16];
                hdr.copy_from_slice(&msg.payload[..16]);
                let offset = u64::from_le_bytes(hdr[..8].try_into().unwrap()) as usize;
                let nbytes = u64::from_le_bytes(hdr[8..].try_into().unwrap()) as usize;
                let mut out = vec![0u8; nbytes];
                self.heap().read_bytes(offset, &mut out);
                self.transport.send(
                    msg.src,
                    Channel::SHMEM,
                    tag(op::GET_REP, 0, tag_low(t)),
                    Bytes::from(out),
                );
            }
            op::AMO_REQ => {
                let p = &msg.payload;
                let offset = u64::from_le_bytes(p[..8].try_into().unwrap()) as usize;
                let a = u64::from_le_bytes(p[8..16].try_into().unwrap());
                let b = u64::from_le_bytes(p[16..24].try_into().unwrap());
                let old = match tag_aux(t) {
                    amo::FADD => self.heap().fetch_add_u64(offset, a),
                    amo::CSWAP => self.heap().compare_swap_u64(offset, a, b),
                    other => {
                        self.wire_fault(format!(
                            "unknown atomic sub-op {} from rank {}",
                            other, msg.src
                        ));
                        return;
                    }
                };
                self.notify_local_change();
                self.transport.send(
                    msg.src,
                    Channel::SHMEM,
                    tag(op::AMO_REP, 0, tag_low(t)),
                    Bytes::copy_from_slice(&old.to_le_bytes()),
                );
            }
            op::ACK_REQ => {
                self.transport.send(
                    msg.src,
                    Channel::SHMEM,
                    tag(op::ACK_REP, 0, tag_low(t)),
                    Bytes::new(),
                );
            }
            op::GET_REP | op::AMO_REP | op::ACK_REP => {
                let slot = self.slots.lock().remove(&tag_low(t));
                if let Some(slot) = slot {
                    slot.complete(msg.payload);
                }
            }
            op::COLL => {
                let mut coll = self.coll.lock();
                coll.entry((msg.src, t)).or_default().push_back(msg.payload);
                self.coll_cond.notify_all();
            }
            other => self.wire_fault(format!("unknown opcode {} from rank {}", other, msg.src)),
        }
    }

    fn notify_local_change(&self) {
        {
            let mut epoch = self.change_epoch.lock();
            *epoch += 1;
            self.change_cond.notify_all();
        }
        // Sweep async_when registrations.
        let fired: Vec<Box<dyn FnOnce() + Send>> = {
            let heap = self.heap();
            let mut whens = self.whens.lock();
            let mut fired = Vec::new();
            whens.retain_mut(|w| {
                if w.cmp.eval(heap.load_i64(w.offset), w.value) {
                    if let Some(f) = w.fire.take() {
                        fired.push(f);
                    }
                    false
                } else {
                    true
                }
            });
            fired
        };
        for f in fired {
            f();
        }
    }

    fn new_slot(&self, cb: Option<Box<dyn FnOnce(Bytes) + Send>>) -> (u64, Arc<OneShot>) {
        let id = self.next_slot.fetch_add(1, Ordering::Relaxed);
        let slot = match cb {
            Some(cb) => OneShot::with_callback(cb),
            None => OneShot::new(),
        };
        self.slots.lock().insert(id, Arc::clone(&slot));
        (id, slot)
    }

    // ------------------------------------------------------------------
    // One-sided operations
    // ------------------------------------------------------------------

    /// `shmem_putmem`: copies `data` into `target`'s heap at `offset`.
    /// Completes locally as soon as the payload is handed to the transport
    /// (buffered put); use [`quiet`](Self::quiet) or a barrier for remote
    /// completion.
    pub fn put(&self, target: Rank, offset: usize, data: &[u8]) {
        let mut payload = BytesMut::with_capacity(8 + data.len());
        payload.put_u64_le(offset as u64);
        payload.put_slice(data);
        self.dirty.lock().insert(target);
        self.transport
            .send(target, Channel::SHMEM, tag(op::PUT, 0, 0), payload.freeze());
    }

    /// Typed put of 64-bit values.
    pub fn put64(&self, target: Rank, offset: usize, values: &[u64]) {
        self.put(target, offset, &hiper_netsim::pod::to_bytes(values));
    }

    /// `shmem_getmem` with a completion callback (runs on the delivery
    /// thread; must be cheap).
    pub fn get_cb(
        &self,
        target: Rank,
        offset: usize,
        nbytes: usize,
        cb: Box<dyn FnOnce(Bytes) + Send>,
    ) {
        if target == self.rank() {
            // Local fast path.
            let mut out = vec![0u8; nbytes];
            self.heap().read_bytes(offset, &mut out);
            cb(Bytes::from(out));
            return;
        }
        let (id, _slot) = self.new_slot(Some(cb));
        let mut payload = BytesMut::with_capacity(16);
        payload.put_u64_le(offset as u64);
        payload.put_u64_le(nbytes as u64);
        self.transport.send(
            target,
            Channel::SHMEM,
            tag(op::GET_REQ, 0, id),
            payload.freeze(),
        );
    }

    /// Blocking `shmem_getmem`.
    pub fn get(&self, target: Rank, offset: usize, nbytes: usize) -> Bytes {
        if target == self.rank() {
            let mut out = vec![0u8; nbytes];
            self.heap().read_bytes(offset, &mut out);
            return Bytes::from(out);
        }
        let (id, slot) = self.new_slot(None);
        let mut payload = BytesMut::with_capacity(16);
        payload.put_u64_le(offset as u64);
        payload.put_u64_le(nbytes as u64);
        self.transport.send(
            target,
            Channel::SHMEM,
            tag(op::GET_REQ, 0, id),
            payload.freeze(),
        );
        slot.wait()
    }

    fn amo(
        &self,
        target: Rank,
        sub: u8,
        offset: usize,
        a: u64,
        b: u64,
        cb: Option<Box<dyn FnOnce(Bytes) + Send>>,
    ) -> Option<Arc<OneShot>> {
        let (id, slot) = self.new_slot(cb);
        let mut payload = BytesMut::with_capacity(24);
        payload.put_u64_le(offset as u64);
        payload.put_u64_le(a);
        payload.put_u64_le(b);
        self.dirty.lock().insert(target);
        self.transport.send(
            target,
            Channel::SHMEM,
            tag(op::AMO_REQ, sub, id),
            payload.freeze(),
        );
        Some(slot)
    }

    /// Blocking `shmem_atomic_fetch_add` on a remote 64-bit value.
    pub fn fadd(&self, target: Rank, offset: usize, delta: u64) -> u64 {
        if target == self.rank() {
            let old = self.heap().fetch_add_u64(offset, delta);
            self.notify_local_change();
            return old;
        }
        let slot = self.amo(target, amo::FADD, offset, delta, 0, None).unwrap();
        u64::from_le_bytes(slot.wait()[..8].try_into().unwrap())
    }

    /// Fetch-add with a completion callback.
    pub fn fadd_cb(
        &self,
        target: Rank,
        offset: usize,
        delta: u64,
        cb: Box<dyn FnOnce(u64) + Send>,
    ) {
        if target == self.rank() {
            let old = self.heap().fetch_add_u64(offset, delta);
            self.notify_local_change();
            cb(old);
            return;
        }
        self.amo(
            target,
            amo::FADD,
            offset,
            delta,
            0,
            Some(Box::new(move |b: Bytes| {
                cb(u64::from_le_bytes(b[..8].try_into().unwrap()))
            })),
        );
    }

    /// Blocking `shmem_atomic_compare_swap`; returns the old value.
    pub fn cswap(&self, target: Rank, offset: usize, expected: u64, desired: u64) -> u64 {
        if target == self.rank() {
            let old = self.heap().compare_swap_u64(offset, expected, desired);
            self.notify_local_change();
            return old;
        }
        let slot = self
            .amo(target, amo::CSWAP, offset, expected, desired, None)
            .unwrap();
        u64::from_le_bytes(slot.wait()[..8].try_into().unwrap())
    }

    /// Signalled local store: writes a local symmetric 64-bit value and
    /// wakes local `wait_until`/`async_when` registrations.
    pub fn store_local_i64(&self, offset: usize, value: i64) {
        self.heap().store_i64(offset, value);
        self.notify_local_change();
    }

    /// `shmem_quiet`: blocks until every outstanding put/atomic issued by
    /// this rank has been applied at its target (flush of dirty links via
    /// acknowledged no-ops behind the FIFO traffic).
    pub fn quiet(&self) {
        // Self is included: puts to self also traverse the (loopback)
        // transport, so they too need flushing.
        let targets: Vec<Rank> = self.dirty.lock().drain().collect();
        let slots: Vec<Arc<OneShot>> = targets
            .into_iter()
            .map(|t| {
                let (id, slot) = self.new_slot(None);
                self.transport
                    .send(t, Channel::SHMEM, tag(op::ACK_REQ, 0, id), Bytes::new());
                slot
            })
            .collect();
        for slot in slots {
            slot.wait();
        }
    }

    // ------------------------------------------------------------------
    // Point-to-point synchronization
    // ------------------------------------------------------------------

    /// Blocking `shmem_wait_until` on a local symmetric 64-bit value. Parks
    /// the calling OS thread (the blocking behaviour the paper's
    /// `shmem_async_when` was invented to avoid, §II-C2).
    pub fn wait_until(&self, offset: usize, cmp: Cmp, value: i64) {
        loop {
            if cmp.eval(self.heap().load_i64(offset), value) {
                return;
            }
            let mut epoch = self.change_epoch.lock();
            // Re-check under the lock to avoid a lost wakeup.
            if cmp.eval(self.heap().load_i64(offset), value) {
                return;
            }
            let seen = *epoch;
            while *epoch == seen {
                self.change_cond.wait(&mut epoch);
            }
        }
    }

    /// Registers `fire` to run (on the delivery thread) once the local
    /// 64-bit value at `offset` satisfies `cmp value`. Fires immediately if
    /// it already does. Building block of the module's `shmem_async_when`.
    pub fn register_when(
        &self,
        offset: usize,
        cmp: Cmp,
        value: i64,
        fire: Box<dyn FnOnce() + Send>,
    ) {
        {
            let mut whens = self.whens.lock();
            if !cmp.eval(self.heap().load_i64(offset), value) {
                whens.push(WhenEntry {
                    offset,
                    cmp,
                    value,
                    fire: Some(fire),
                });
                return;
            }
        }
        fire();
    }

    // ------------------------------------------------------------------
    // Collectives
    // ------------------------------------------------------------------

    fn next_seq(&self) -> u64 {
        self.coll_seq.fetch_add(1, Ordering::Relaxed)
    }

    /// `shmem_barrier_all`: quiet + dissemination barrier.
    pub fn barrier_all(&self) {
        self.quiet();
        collective::barrier(self, self.rank(), self.nranks(), self.next_seq());
    }

    /// Binomial broadcast of a byte payload from `root`.
    pub fn broadcast(&self, root: Rank, data: Bytes) -> Bytes {
        let seq = self.next_seq();
        collective::bcast(self, self.rank(), self.nranks(), seq, root, data)
    }

    /// Reduce-to-zero + broadcast with a caller combine (`*_to_all`).
    pub fn to_all_bytes(&self, mine: Bytes, combine: &dyn Fn(&[u8], &[u8]) -> Bytes) -> Bytes {
        let seq = self.next_seq();
        let reduced = collective::reduce(self, self.rank(), self.nranks(), seq, mine, combine);
        self.broadcast(0, reduced.unwrap_or_default())
    }

    /// `shmem_longlong_sum_to_all` over a u64 vector.
    pub fn sum_to_all_u64(&self, mine: &[u64]) -> Vec<u64> {
        let out = self.to_all_bytes(hiper_netsim::pod::to_bytes(mine), &|a, b| {
            let mut av: Vec<u64> = hiper_netsim::pod::from_bytes(a);
            let bv: Vec<u64> = hiper_netsim::pod::from_bytes(b);
            for (x, y) in av.iter_mut().zip(bv) {
                *x = x.wrapping_add(y);
            }
            hiper_netsim::pod::to_bytes(&av)
        });
        hiper_netsim::pod::from_bytes(&out)
    }

    /// `shmem_double_sum_to_all`.
    pub fn sum_to_all_f64(&self, mine: &[f64]) -> Vec<f64> {
        let out = self.to_all_bytes(hiper_netsim::pod::to_bytes(mine), &|a, b| {
            let mut av: Vec<f64> = hiper_netsim::pod::from_bytes(a);
            let bv: Vec<f64> = hiper_netsim::pod::from_bytes(b);
            for (x, y) in av.iter_mut().zip(bv) {
                *x += y;
            }
            hiper_netsim::pod::to_bytes(&av)
        });
        hiper_netsim::pod::from_bytes(&out)
    }

    /// `shmem_longlong_max_to_all`.
    pub fn max_to_all_i64(&self, mine: &[i64]) -> Vec<i64> {
        let out = self.to_all_bytes(hiper_netsim::pod::to_bytes(mine), &|a, b| {
            let mut av: Vec<i64> = hiper_netsim::pod::from_bytes(a);
            let bv: Vec<i64> = hiper_netsim::pod::from_bytes(b);
            for (x, y) in av.iter_mut().zip(bv) {
                *x = (*x).max(y);
            }
            hiper_netsim::pod::to_bytes(&av)
        });
        hiper_netsim::pod::from_bytes(&out)
    }

    /// Element exchange: rank `d` receives `mine[d]` from every rank,
    /// returned indexed by source (the count exchange of ISx).
    pub fn alltoall64(&self, mine: &[u64]) -> Vec<u64> {
        let seq = self.next_seq();
        let p = self.nranks();
        let me = self.rank();
        assert_eq!(mine.len(), p);
        for (dst, &v) in mine.iter().enumerate() {
            if dst != me {
                let word = Bytes::copy_from_slice(&v.to_le_bytes());
                self.coll_send(dst, collop::ALLTOALL, 0, seq, word);
            }
        }
        (0..p)
            .map(|src| {
                if src == me {
                    mine[me]
                } else {
                    let b = self.coll_recv(src, collop::ALLTOALL, 0, seq);
                    u64::from_le_bytes(b[..8].try_into().unwrap())
                }
            })
            .collect()
    }
}

impl CollLink for RawShmem {
    fn coll_send(&self, dst: Rank, op: u8, round: u8, seq: u64, data: Bytes) {
        let t = coll_tag(op, round, seq);
        self.transport.send(dst, Channel::SHMEM, t, data);
    }

    fn coll_recv(&self, src: Rank, op: u8, round: u8, seq: u64) -> Bytes {
        let t = coll_tag(op, round, seq);
        let mut coll = self.coll.lock();
        loop {
            if let Some(queue) = coll.get_mut(&(src, t)) {
                if let Some(data) = queue.pop_front() {
                    if queue.is_empty() {
                        coll.remove(&(src, t));
                    }
                    return data;
                }
            }
            self.coll_cond.wait(&mut coll);
        }
    }
}

fn split_header(payload: &Bytes) -> (u64, &[u8]) {
    let header = u64::from_le_bytes(payload[..8].try_into().unwrap());
    (header, &payload[8..])
}

impl std::fmt::Debug for RawShmem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "RawShmem(pe {}/{})", self.rank(), self.nranks())
    }
}
