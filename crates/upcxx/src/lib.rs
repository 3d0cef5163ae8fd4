//! HiPER UPC++ module (paper §II-C; used by the HPGMG-FV benchmark).
//!
//! UPC++ is natively future-based, which makes it the most direct fit for
//! HiPER's composition model: one-sided `rput`/`rget` return futures, and
//! `rpc` ships a function to execute at a remote rank, returning a future on
//! its result. This module implements that surface over the simulated
//! cluster:
//!
//! * [`GlobalPtr`] — a (rank, offset) pointer into a rank's shared segment.
//! * [`UpcxxModule::rput`] / [`UpcxxModule::rget`] — one-sided transfers
//!   executed directly against the target segment by the delivery engine
//!   (the RDMA model), with acknowledged completion futures.
//! * [`UpcxxModule::rpc`] — remote procedure calls. Because the simulated
//!   cluster is one process, closures cross rank boundaries without
//!   serialization (a real UPC++ would marshal arguments; the scheduling
//!   behaviour — remote execution as a task on the target's runtime, reply
//!   after a network delay — is what matters here and is preserved).
//! * `barrier` / `allreduce_f64` — collectives built on `rpc`.

use std::any::Any;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use bytes::{BufMut, Bytes, BytesMut};
use hiper_netsim::{Channel, Message, Rank, Transport};
use hiper_platform::PlaceKind;
use hiper_runtime::{Future, ModuleCtx, ModuleError, Promise, Runtime, SchedulerModule};
use parking_lot::{Mutex, RwLock};

mod op {
    pub const PUT: u8 = 1;
    pub const PUT_ACK: u8 = 2;
    pub const GET_REQ: u8 = 3;
    pub const GET_REP: u8 = 4;
    pub const RPC_REQ: u8 = 5;
    pub const RPC_REP: u8 = 6;
}

fn tag(opcode: u8, low: u64) -> u64 {
    ((opcode as u64) << 56) | (low & 0xFF_FFFF_FFFF_FFFF)
}

/// A pointer into `rank`'s shared segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GlobalPtr {
    /// Owning rank.
    pub rank: Rank,
    /// Byte offset within the owner's segment.
    pub offset: usize,
    /// Allocation length in bytes.
    pub len: usize,
}

impl GlobalPtr {
    /// Byte-granular sub-range.
    pub fn slice(&self, from: usize, len: usize) -> GlobalPtr {
        assert!(from + len <= self.len, "global_ptr slice out of range");
        GlobalPtr {
            rank: self.rank,
            offset: self.offset + from,
            len,
        }
    }
}

type RpcClosure = Box<dyn FnOnce() -> Box<dyn Any + Send> + Send>;
type RpcCallback = Box<dyn FnOnce(Box<dyn Any + Send>) + Send>;
/// Staged RPC results keyed by (caller, slot).
type RpcResults = HashMap<(Rank, u64), Box<dyn Any + Send>>;

/// Cluster-shared state: segments plus in-process RPC staging tables.
#[derive(Clone)]
pub struct UpcxxWorld {
    segments: Arc<Vec<RwLock<Vec<u8>>>>,
    /// Outgoing rpc closures staged by (caller, slot); slot ids are unique
    /// per caller, so the pair is globally unique.
    closures: Arc<Mutex<HashMap<(Rank, u64), RpcClosure>>>,
    /// Rpc results staged for (caller, slot).
    results: Arc<Mutex<RpcResults>>,
}

impl UpcxxWorld {
    /// Allocates `nranks` shared segments of `segment_bytes` each.
    pub fn new(nranks: usize, segment_bytes: usize) -> UpcxxWorld {
        UpcxxWorld {
            segments: Arc::new(
                (0..nranks)
                    .map(|_| RwLock::new(vec![0u8; segment_bytes]))
                    .collect(),
            ),
            closures: Arc::new(Mutex::new(HashMap::new())),
            results: Arc::new(Mutex::new(HashMap::new())),
        }
    }

    /// Number of ranks.
    pub fn nranks(&self) -> usize {
        self.segments.len()
    }
}

/// One rank's UPC++ endpoint.
pub struct UpcxxModule {
    world: UpcxxWorld,
    transport: Transport,
    alloc_next: Mutex<usize>,
    next_slot: AtomicU64,
    pending: Mutex<HashMap<u64, RpcCallback>>,
    ctx: ModuleCtx,
    /// First wire-protocol violation seen by the delivery handler
    /// (truncated frame, unknown opcode, rpc state desync). The frame is
    /// dropped, not panicked on; surfaces via [`health`](UpcxxModule::health).
    wire_error: Mutex<Option<ModuleError>>,
}

impl UpcxxModule {
    /// Creates the endpoint and registers its delivery handler.
    pub fn new(world: UpcxxWorld, transport: Transport) -> Arc<UpcxxModule> {
        assert_eq!(world.nranks(), transport.nranks());
        let module = Arc::new(UpcxxModule {
            world,
            transport: transport.clone(),
            alloc_next: Mutex::new(0),
            next_slot: AtomicU64::new(1),
            pending: Mutex::new(HashMap::new()),
            ctx: ModuleCtx::new("upcxx", "upcxx-poll"),
            wire_error: Mutex::new(None),
        });
        let m2 = Arc::clone(&module);
        transport.register_handler(Channel::UPCXX, Box::new(move |m| m2.on_message(m)));
        module
    }

    /// This rank (`upcxx::rank_me`).
    pub fn rank(&self) -> Rank {
        self.transport.rank()
    }

    /// Cluster size (`upcxx::rank_n`).
    pub fn nranks(&self) -> usize {
        self.transport.nranks()
    }

    /// Allocates `nbytes` in this rank's shared segment
    /// (`upcxx::new_array`-style; 16-byte aligned).
    pub fn alloc(&self, nbytes: usize) -> GlobalPtr {
        let mut next = self.alloc_next.lock();
        let offset = (*next + 15) & !15;
        let seg_len = self.world.segments[self.rank()].read().len();
        assert!(offset + nbytes <= seg_len, "shared segment exhausted");
        *next = offset + nbytes;
        GlobalPtr {
            rank: self.rank(),
            offset,
            len: nbytes,
        }
    }

    /// Local access to a `GlobalPtr` owned by this rank (`local()`).
    pub fn local_with<R>(&self, ptr: GlobalPtr, f: impl FnOnce(&[u8]) -> R) -> R {
        assert_eq!(ptr.rank, self.rank(), "local access to remote pointer");
        let seg = self.world.segments[ptr.rank].read();
        f(&seg[ptr.offset..ptr.offset + ptr.len])
    }

    /// Local mutation of an owned `GlobalPtr`.
    pub fn local_with_mut<R>(&self, ptr: GlobalPtr, f: impl FnOnce(&mut [u8]) -> R) -> R {
        assert_eq!(ptr.rank, self.rank(), "local access to remote pointer");
        let mut seg = self.world.segments[ptr.rank].write();
        f(&mut seg[ptr.offset..ptr.offset + ptr.len])
    }

    fn new_slot(&self, cb: RpcCallback) -> u64 {
        let id = self.next_slot.fetch_add(1, Ordering::Relaxed);
        self.pending.lock().insert(id, cb);
        id
    }

    /// Records a wire-protocol violation (first one wins) instead of
    /// panicking the delivery-engine thread; the offending frame is dropped.
    fn wire_fault(&self, detail: String) {
        let mut slot = self.wire_error.lock();
        if slot.is_none() {
            *slot = Some(ModuleError::protocol("upcxx", detail));
        }
    }

    /// Endpoint health: `Err` once the delivery handler has dropped a
    /// malformed wire frame or hit an rpc-state desync.
    pub fn health(&self) -> Result<(), ModuleError> {
        match self.wire_error.lock().clone() {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    fn on_message(&self, msg: Message) {
        let opcode = (msg.tag >> 56) as u8;
        let low = msg.tag & 0xFF_FFFF_FFFF_FFFF;
        // Validate frame length before parsing: a truncated header must
        // drop the frame with a typed error, not panic the engine thread.
        let need = match opcode {
            op::PUT => 8,
            op::GET_REQ => 16,
            _ => 0,
        };
        if msg.payload.len() < need {
            self.wire_fault(format!(
                "opcode {} frame from rank {} is {} bytes, need {}",
                opcode,
                msg.src,
                msg.payload.len(),
                need
            ));
            return;
        }
        match opcode {
            op::PUT => {
                let offset = u64::from_le_bytes(msg.payload[..8].try_into().unwrap()) as usize;
                let data = &msg.payload[8..];
                self.world.segments[self.rank()].write()[offset..offset + data.len()]
                    .copy_from_slice(data);
                self.transport
                    .send(msg.src, Channel::UPCXX, tag(op::PUT_ACK, low), Bytes::new());
            }
            op::GET_REQ => {
                let offset = u64::from_le_bytes(msg.payload[..8].try_into().unwrap()) as usize;
                let nbytes = u64::from_le_bytes(msg.payload[8..16].try_into().unwrap()) as usize;
                let data = {
                    let seg = self.world.segments[self.rank()].read();
                    Bytes::copy_from_slice(&seg[offset..offset + nbytes])
                };
                self.transport
                    .send(msg.src, Channel::UPCXX, tag(op::GET_REP, low), data);
            }
            op::RPC_REQ => {
                // Execute the staged closure as a task on this rank's
                // runtime (unified scheduling), then reply.
                let key = (msg.src, low);
                let closure = match self.world.closures.lock().remove(&key) {
                    Some(c) => c,
                    None => {
                        self.wire_fault(format!(
                            "rpc request from rank {} slot {} has no staged closure",
                            msg.src, low
                        ));
                        return;
                    }
                };
                let world = self.world.clone();
                let transport = self.transport.clone();
                let caller = msg.src;
                self.ctx.with(|b| {
                    b.rt.spawn_at_yield(b.place, move || {
                        let result = closure();
                        world.results.lock().insert((caller, low), result);
                        transport.send(caller, Channel::UPCXX, tag(op::RPC_REP, low), Bytes::new());
                    });
                });
            }
            op::PUT_ACK | op::GET_REP | op::RPC_REP => {
                let cb = self.pending.lock().remove(&low);
                if let Some(cb) = cb {
                    match opcode {
                        op::GET_REP => cb(Box::new(msg.payload)),
                        op::RPC_REP => {
                            match self.world.results.lock().remove(&(self.rank(), low)) {
                                Some(result) => cb(result),
                                None => self.wire_fault(format!(
                                    "rpc reply from rank {} slot {} has no staged result",
                                    msg.src, low
                                )),
                            }
                        }
                        _ => cb(Box::new(())),
                    }
                }
            }
            other => self.wire_fault(format!("unknown opcode {} from rank {}", other, msg.src)),
        }
    }

    // ------------------------------------------------------------------
    // One-sided operations
    // ------------------------------------------------------------------

    /// `upcxx::rput`: writes `data` at `dst`; the future is satisfied at
    /// operation completion (target-side visibility).
    pub fn rput(&self, data: &[u8], dst: GlobalPtr) -> Future<()> {
        assert!(data.len() <= dst.len, "rput larger than destination");
        self.ctx.time_op("rput", data.len() as u64, |_| {
            let promise = Promise::new();
            let fut = promise.future();
            if dst.rank == self.rank() {
                self.world.segments[dst.rank].write()[dst.offset..dst.offset + data.len()]
                    .copy_from_slice(data);
                promise.put(());
                return fut;
            }
            let mut slot_promise = Some(promise);
            let id = self.new_slot(Box::new(move |_| {
                slot_promise.take().expect("ack twice").put(());
            }));
            let mut payload = BytesMut::with_capacity(8 + data.len());
            payload.put_u64_le(dst.offset as u64);
            payload.put_slice(data);
            self.transport
                .send(dst.rank, Channel::UPCXX, tag(op::PUT, id), payload.freeze());
            fut
        })
    }

    /// `upcxx::rget`: fetches `src.len` bytes; future carries the data.
    pub fn rget(&self, src: GlobalPtr) -> Future<Bytes> {
        self.ctx.time_op("rget", src.len as u64, |_| {
            let promise = Promise::new();
            let fut = promise.future();
            if src.rank == self.rank() {
                let seg = self.world.segments[src.rank].read();
                promise.put(Bytes::copy_from_slice(
                    &seg[src.offset..src.offset + src.len],
                ));
                return fut;
            }
            let mut slot_promise = Some(promise);
            let id = self.new_slot(Box::new(move |result| {
                let data = *result.downcast::<Bytes>().expect("rget reply type");
                slot_promise.take().expect("reply twice").put(data);
            }));
            let mut payload = BytesMut::with_capacity(16);
            payload.put_u64_le(src.offset as u64);
            payload.put_u64_le(src.len as u64);
            self.transport.send(
                src.rank,
                Channel::UPCXX,
                tag(op::GET_REQ, id),
                payload.freeze(),
            );
            fut
        })
    }

    /// Typed `rget` of f64 values.
    pub fn rget_f64(&self, src: GlobalPtr) -> Future<Vec<f64>> {
        self.rget(src)
            .map(|data| hiper_netsim::pod::from_bytes(data))
    }

    /// `upcxx::rpc`: executes `f` at `target` as a task on the target's
    /// runtime; returns a future on its result.
    pub fn rpc<R: Send + 'static>(
        &self,
        target: Rank,
        f: impl FnOnce() -> R + Send + 'static,
    ) -> Future<R> {
        self.ctx.time_op("rpc", 0, |_| self.rpc_untimed(target, f))
    }

    /// [`rpc`](Self::rpc) without the stats span: the collectives below are
    /// built on it and report under their own names.
    fn rpc_untimed<R: Send + 'static>(
        &self,
        target: Rank,
        f: impl FnOnce() -> R + Send + 'static,
    ) -> Future<R> {
        let promise = Promise::new();
        let fut = promise.future();
        let mut slot_promise = Some(promise);
        let id = self.new_slot(Box::new(move |result| {
            let value = *result.downcast::<R>().expect("rpc result type mismatch");
            slot_promise.take().expect("reply twice").put(value);
        }));
        self.world.closures.lock().insert(
            (self.rank(), id),
            Box::new(move || Box::new(f()) as Box<dyn Any + Send>),
        );
        self.transport
            .send(target, Channel::UPCXX, tag(op::RPC_REQ, id), Bytes::new());
        fut
    }

    // ------------------------------------------------------------------
    // Collectives (built on rpc)
    // ------------------------------------------------------------------

    /// `upcxx::barrier()` (blocking; help-first on workers).
    pub fn barrier(&self, shared: &UpcxxBarrier) {
        self.ctx
            .time_op("barrier", 0, |_| self.barrier_async(shared).wait());
    }

    /// Future-returning barrier.
    pub fn barrier_async(&self, shared: &UpcxxBarrier) -> Future<()> {
        let promise = Promise::new();
        let fut = promise.future();
        let n = self.nranks();
        let state = shared.state.clone();
        // Arrival executes at rank 0 (after a network delay, via rpc).
        let arrive = move || {
            let mut st = state.lock();
            st.waiting.push(promise);
            if st.waiting.len() == n {
                for p in st.waiting.drain(..) {
                    p.put(());
                }
            }
        };
        // Every rank (including 0) routes its arrival through rpc, so each
        // arrival pays a network delay and runs as a task at rank 0.
        let _ = self.rpc_untimed(0, arrive);
        fut
    }

    /// Elementwise f64 sum-allreduce (rpc contributions to rank 0, results
    /// pushed back through the shared promise table).
    pub fn allreduce_sum_f64(&self, shared: &UpcxxReduce, vals: &[f64]) -> Future<Vec<f64>> {
        self.ctx.time_op("allreduce", 8 * vals.len() as u64, |_| {
            let promise = Promise::new();
            let fut = promise.future();
            let n = self.nranks();
            let state = shared.state.clone();
            let mine = vals.to_vec();
            let contribute = move || {
                let mut st = state.lock();
                match &mut st.acc {
                    Some(acc) => {
                        for (a, b) in acc.iter_mut().zip(&mine) {
                            *a += b;
                        }
                    }
                    None => st.acc = Some(mine.clone()),
                }
                st.waiting.push(promise);
                if st.waiting.len() == n {
                    let result = st.acc.take().expect("reduction accumulator missing");
                    for p in st.waiting.drain(..) {
                        p.put(result.clone());
                    }
                }
            };
            let _ = self.rpc_untimed(0, contribute);
            fut
        })
    }
}

/// Shared state for [`UpcxxModule::barrier`]; create once per cluster and
/// clone into every rank (like [`UpcxxWorld`]).
#[derive(Clone, Default)]
pub struct UpcxxBarrier {
    state: Arc<Mutex<BarrierState>>,
}

#[derive(Default)]
struct BarrierState {
    waiting: Vec<Promise<()>>,
}

impl UpcxxBarrier {
    /// Creates the shared barrier state.
    pub fn new() -> UpcxxBarrier {
        UpcxxBarrier::default()
    }
}

/// Shared state for [`UpcxxModule::allreduce_sum_f64`]. One reduction may be
/// in flight at a time per instance.
#[derive(Clone, Default)]
pub struct UpcxxReduce {
    state: Arc<Mutex<ReduceState>>,
}

#[derive(Default)]
struct ReduceState {
    acc: Option<Vec<f64>>,
    waiting: Vec<Promise<Vec<f64>>>,
}

impl UpcxxReduce {
    /// Creates the shared reduction state.
    pub fn new() -> UpcxxReduce {
        UpcxxReduce::default()
    }
}

impl SchedulerModule for UpcxxModule {
    fn name(&self) -> &'static str {
        "upcxx"
    }

    fn initialize(&self, rt: &Runtime) -> Result<(), ModuleError> {
        let interconnect = self.ctx.find_place(rt, &[PlaceKind::Interconnect])?;
        self.ctx.bind(rt, interconnect, ());
        Ok(())
    }

    fn finalize(&self, _rt: &Runtime) {
        self.ctx.unbind();
    }
}

impl std::fmt::Debug for UpcxxModule {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "UpcxxModule(rank {}/{})", self.rank(), self.nranks())
    }
}
