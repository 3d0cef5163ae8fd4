//! The HiPER OpenSHMEM module — "AsyncSHMEM" (paper §II-C2).
//!
//! OpenSHMEM v1.3 makes no thread-safety guarantees; funnelling every
//! library call through tasks at the Interconnect place makes multithreaded
//! use safe and standard-compliant, exactly as the paper argues. On top of
//! the taskified standard APIs, the module adds the paper's novel
//! future-based extensions — most importantly
//! [`ShmemModule::async_when`] (`shmem_async_when`): a task whose execution
//! is predicated on a remote put into this rank's address space, replacing
//! CPU-burning `shmem_wait_until` loops with runtime-managed continuations.

use std::sync::Arc;

use bytes::Bytes;
use hiper_netsim::{Rank, Transport};
use hiper_platform::PlaceKind;
use hiper_runtime::{Future, ModuleCtx, ModuleError, Promise, Runtime, SchedulerModule};

use crate::heap::{SymHeap, SymPtr};
use crate::raw::{Cmp, RawShmem, ShmemWorld};

/// The HiPER OpenSHMEM module. One instance per rank.
pub struct ShmemModule {
    raw: Arc<RawShmem>,
    ctx: ModuleCtx,
}

impl ShmemModule {
    /// Creates the module for one rank.
    pub fn new(world: ShmemWorld, transport: Transport) -> Arc<ShmemModule> {
        Arc::new(ShmemModule {
            raw: RawShmem::new(world, transport),
            ctx: ModuleCtx::new("shmem", "shmem-poll"),
        })
    }

    /// The underlying SHMEM library endpoint (what flat baselines use).
    pub fn raw(&self) -> &Arc<RawShmem> {
        &self.raw
    }

    /// `shmem_my_pe`.
    pub fn rank(&self) -> Rank {
        self.raw.rank()
    }

    /// `shmem_n_pes`.
    pub fn nranks(&self) -> usize {
        self.raw.nranks()
    }

    /// Local heap handle.
    pub fn heap(&self) -> &Arc<SymHeap> {
        self.raw.heap()
    }

    /// Symmetric allocation (collective in SPMD order).
    pub fn malloc(&self, nbytes: usize) -> SymPtr {
        self.raw.malloc(nbytes)
    }

    /// Symmetric allocation of `n` 64-bit elements.
    pub fn malloc64(&self, n: usize) -> SymPtr {
        self.raw.malloc64(n)
    }

    // ------------------------------------------------------------------
    // Taskified standard APIs
    // ------------------------------------------------------------------

    /// `shmem_putmem` (taskified).
    pub fn put(&self, target: Rank, offset: usize, data: Vec<u8>) {
        let raw = Arc::clone(&self.raw);
        let bytes = data.len() as u64;
        self.ctx
            .taskify("put", bytes, move || raw.put(target, offset, &data));
    }

    /// Typed 64-bit put (taskified).
    pub fn put64(&self, target: Rank, offset: usize, values: Vec<u64>) {
        let raw = Arc::clone(&self.raw);
        let bytes = (values.len() * 8) as u64;
        self.ctx
            .taskify("put64", bytes, move || raw.put64(target, offset, &values));
    }

    /// `shmem_getmem` (taskified blocking).
    pub fn get(&self, target: Rank, offset: usize, nbytes: usize) -> Bytes {
        let raw = Arc::clone(&self.raw);
        self.ctx.taskify("get", nbytes as u64, move || {
            raw.get(target, offset, nbytes)
        })
    }

    /// `shmem_atomic_fetch_add` (taskified blocking).
    pub fn fadd(&self, target: Rank, offset: usize, delta: u64) -> u64 {
        let raw = Arc::clone(&self.raw);
        self.ctx
            .taskify("fadd", 8, move || raw.fadd(target, offset, delta))
    }

    /// `shmem_atomic_compare_swap` (taskified blocking).
    pub fn cswap(&self, target: Rank, offset: usize, expected: u64, desired: u64) -> u64 {
        let raw = Arc::clone(&self.raw);
        self.ctx.taskify("cswap", 8, move || {
            raw.cswap(target, offset, expected, desired)
        })
    }

    /// `shmem_quiet` (taskified).
    pub fn quiet(&self) {
        let raw = Arc::clone(&self.raw);
        self.ctx.taskify("quiet", 0, move || raw.quiet());
    }

    /// `shmem_barrier_all` (taskified).
    pub fn barrier_all(&self) {
        let raw = Arc::clone(&self.raw);
        self.ctx
            .taskify("barrier_all", 0, move || raw.barrier_all());
    }

    /// `shmem_longlong_sum_to_all` (taskified).
    pub fn sum_to_all_u64(&self, mine: Vec<u64>) -> Vec<u64> {
        let raw = Arc::clone(&self.raw);
        let bytes = (mine.len() * 8) as u64;
        self.ctx
            .taskify("sum_to_all", bytes, move || raw.sum_to_all_u64(&mine))
    }

    /// `shmem_double_sum_to_all` (taskified).
    pub fn sum_to_all_f64(&self, mine: Vec<f64>) -> Vec<f64> {
        let raw = Arc::clone(&self.raw);
        let bytes = (mine.len() * 8) as u64;
        self.ctx
            .taskify("sum_to_all", bytes, move || raw.sum_to_all_f64(&mine))
    }

    /// Count exchange (taskified `alltoall64`).
    pub fn alltoall64(&self, mine: Vec<u64>) -> Vec<u64> {
        let raw = Arc::clone(&self.raw);
        let bytes = (mine.len() * 8) as u64;
        self.ctx
            .taskify("alltoall", bytes, move || raw.alltoall64(&mine))
    }

    // ------------------------------------------------------------------
    // Future-based extensions (the paper's novel APIs)
    // ------------------------------------------------------------------

    /// Nonblocking get: returns a future on the fetched bytes. The reply
    /// satisfies the future directly from the delivery engine; any HiPER
    /// task can be predicated on it.
    pub fn get_nbi(&self, target: Rank, offset: usize, nbytes: usize) -> Future<Bytes> {
        let promise = Promise::new();
        let fut = promise.future();
        self.raw
            .get_cb(target, offset, nbytes, Box::new(move |b| promise.put(b)));
        fut
    }

    /// Nonblocking fetch-add: returns a future on the old value.
    pub fn fadd_nbi(&self, target: Rank, offset: usize, delta: u64) -> Future<u64> {
        let promise = Promise::new();
        let fut = promise.future();
        self.raw
            .fadd_cb(target, offset, delta, Box::new(move |v| promise.put(v)));
        fut
    }

    /// A future satisfied once the local symmetric value at `offset`
    /// satisfies `cmp value` (`shmem_wait_until` without blocking anything).
    pub fn until_future(&self, offset: usize, cmp: Cmp, value: i64) -> Future<()> {
        let promise = Promise::new();
        let fut = promise.future();
        self.raw
            .register_when(offset, cmp, value, Box::new(move || promise.put(())));
        fut
    }

    /// **`shmem_async_when`** (paper §II-C2): makes a task's execution
    /// predicated on a put by a remote process:
    ///
    /// ```ignore
    /// shmem.async_when(flag_off, Cmp::Eq, 1, move || { /* body */ });
    /// ```
    ///
    /// The body registers with the *current finish scope* immediately, like
    /// every `async_await`-family API, so enclosing `finish` blocks wait for
    /// it.
    pub fn async_when(
        &self,
        offset: usize,
        cmp: Cmp,
        value: i64,
        body: impl FnOnce() + Send + 'static,
    ) {
        let fut = self.until_future(offset, cmp, value);
        self.ctx.with(|b| b.rt.spawn_await(&fut, body));
    }

    /// `shmem_wait_until`, help-first: blocks the calling *task* (not the
    /// core) until the condition holds.
    pub fn wait_until(&self, offset: usize, cmp: Cmp, value: i64) {
        self.until_future(offset, cmp, value).wait();
    }

    /// Signalled local store (wakes local `wait_until` / `async_when`).
    pub fn store_local_i64(&self, offset: usize, value: i64) {
        self.raw.store_local_i64(offset, value);
    }
}

impl SchedulerModule for ShmemModule {
    fn name(&self) -> &'static str {
        "shmem"
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

impl std::fmt::Debug for ShmemModule {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ShmemModule(pe {}/{})", self.rank(), self.nranks())
    }
}
