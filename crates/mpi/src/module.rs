//! The HiPER MPI module (paper §II-C1).
//!
//! Exposes MPI-shaped APIs that schedule their work on the HiPER runtime:
//!
//! * Blocking APIs use the **taskify** pattern: the underlying library call
//!   is wrapped in a closure, `async_at`-ed to the Interconnect place, and
//!   the caller is blocked (help-first) in a `finish` scope — the four-step
//!   flow of §II-C1.
//! * Nonblocking APIs drop the `MPI_Request` out-argument and **return a
//!   `future_t`** instead, satisfied by a singleton polling task that sweeps
//!   the pending-request list and yields between sweeps (§II-C1 steps 1–4).
//!
//! The module asserts at initialization that the platform model contains an
//! Interconnect place; funnelling every library call through tasks at that
//! place reproduces `MPI_THREAD_FUNNELED` usage of the underlying library.

use std::sync::Arc;

use bytes::Bytes;
use hiper_netsim::pod::{from_bytes, Pod};
use hiper_netsim::{Rank, Transport};
use hiper_platform::PlaceKind;
use hiper_runtime::{Future, ModuleCtx, ModuleError, Runtime, SchedulerModule};

use crate::raw::{RawComm, RecvStatus};
use crate::typed::{ReduceOp, Reducible};

/// The HiPER MPI module. Register with [`RuntimeBuilder::module`] and call
/// its methods from tasks (paper code style: `MPI_Isend` returning a
/// future).
///
/// [`RuntimeBuilder::module`]: hiper_runtime::RuntimeBuilder::module
pub struct MpiModule {
    raw: Arc<RawComm>,
    ctx: ModuleCtx,
}

impl MpiModule {
    /// Creates the module for one rank of the simulated cluster.
    pub fn new(transport: Transport) -> Arc<MpiModule> {
        Arc::new(MpiModule {
            raw: RawComm::new(transport),
            ctx: ModuleCtx::new("mpi", "mpi-poll"),
        })
    }

    /// The underlying "MPI library" endpoint (what the paper's baselines
    /// call directly).
    pub fn raw(&self) -> &Arc<RawComm> {
        &self.raw
    }

    /// This rank.
    pub fn rank(&self) -> Rank {
        self.raw.rank()
    }

    /// Cluster size.
    pub fn nranks(&self) -> usize {
        self.raw.nranks()
    }

    // ------------------------------------------------------------------
    // Blocking APIs (taskified)
    // ------------------------------------------------------------------

    /// `MPI_Send` (paper's exact example): taskified blocking send.
    pub fn send<T: Pod>(&self, dst: Rank, tag: u64, data: &[T]) {
        let raw = Arc::clone(&self.raw);
        let payload = hiper_netsim::pod::to_bytes(data);
        let bytes = payload.len() as u64;
        self.ctx
            .taskify("send", bytes, move || raw.send(dst, tag, payload));
    }

    /// `MPI_Recv`: taskified blocking receive.
    ///
    /// Note: the *task* at the Interconnect place blocks in the underlying
    /// library, exactly like a funneled MPI thread would; the calling task
    /// is merely descheduled.
    pub fn recv<T: Pod>(&self, src: Option<Rank>, tag: Option<u64>) -> (Vec<T>, Rank, u64) {
        let raw = Arc::clone(&self.raw);
        let status = self.ctx.taskify("recv", 0, move || raw.recv(src, tag));
        (from_bytes(&status.data), status.src, status.tag)
    }

    /// `MPI_Barrier`: taskified.
    pub fn barrier(&self) {
        let raw = Arc::clone(&self.raw);
        self.ctx.taskify("barrier", 0, move || raw.barrier());
    }

    /// `MPI_Allreduce`: taskified.
    pub fn allreduce<T: Reducible>(&self, data: &[T], op: ReduceOp) -> Vec<T> {
        let raw = Arc::clone(&self.raw);
        let bytes = std::mem::size_of_val(data) as u64;
        let data = data.to_vec();
        self.ctx
            .taskify("allreduce", bytes, move || raw.allreduce(&data, op))
    }

    /// `MPI_Bcast`: taskified.
    pub fn bcast<T: Pod>(&self, root: Rank, data: &[T]) -> Vec<T> {
        let raw = Arc::clone(&self.raw);
        let bytes = std::mem::size_of_val(data) as u64;
        let data = data.to_vec();
        self.ctx
            .taskify("bcast", bytes, move || raw.bcast_vec(root, &data))
    }

    /// `MPI_Alltoallv`: taskified.
    pub fn alltoallv<T: Pod>(&self, parts: Vec<Vec<T>>) -> Vec<Vec<T>> {
        let raw = Arc::clone(&self.raw);
        let bytes: u64 = parts
            .iter()
            .map(|p| std::mem::size_of_val(&p[..]) as u64)
            .sum();
        self.ctx
            .taskify("alltoallv", bytes, move || raw.alltoallv_vec(parts))
    }

    // ------------------------------------------------------------------
    // Nonblocking APIs (future-returning; §II-C1)
    // ------------------------------------------------------------------

    /// `MPI_Isend` with the `MPI_Request` out-argument replaced by a
    /// returned `future_t` (the paper's API change).
    pub fn isend<T: Pod>(&self, dst: Rank, tag: u64, data: &[T]) -> Future<()> {
        let payload = hiper_netsim::pod::to_bytes(data);
        self.isend_bytes(dst, tag, payload)
    }

    /// Byte-level `MPI_Isend`.
    pub fn isend_bytes(&self, dst: Rank, tag: u64, payload: Bytes) -> Future<()> {
        self.ctx.time_op("isend", payload.len() as u64, |b| {
            // Step 1: call the asynchronous API directly, producing a request.
            let req = self.raw.isend(dst, tag, payload);
            // Steps 2-4: pending list + polling task + returned future.
            b.poll_future(move || req.try_status().map(|_| ()))
        })
    }

    /// `MPI_Isend` predicated on a dependency (the paper's
    /// `MPI_Isend_await` from the §II-D stencil example). A poisoned `dep`
    /// sends nothing and poisons the returned future with its error.
    pub fn isend_await<T: Pod, D: Send + 'static>(
        &self,
        dst: Rank,
        tag: u64,
        data: impl Fn() -> Vec<T> + Send + Sync + 'static,
        dep: &Future<D>,
    ) -> Future<()> {
        self.ctx.time_op("isend_await", 0, |b| {
            let raw = Arc::clone(&self.raw);
            b.rt.spawn_future_await_at(b.place, dep, move || {
                raw.send(dst, tag, hiper_netsim::pod::to_bytes(&data()));
            })
        })
    }

    /// `MPI_Irecv` returning a future on the received data (request
    /// out-argument removed, §II-C1).
    pub fn irecv<T: Pod>(
        &self,
        src: Option<Rank>,
        tag: Option<u64>,
    ) -> Future<(Vec<T>, Rank, u64)> {
        self.ctx.time_op("irecv", 0, |b| {
            let req = self.raw.irecv(src, tag);
            b.poll_future(move || {
                let status = req.try_status()?;
                Some((from_bytes::<T>(&status.data), status.src, status.tag))
            })
        })
    }

    /// Byte-level `MPI_Irecv`.
    pub fn irecv_bytes(&self, src: Option<Rank>, tag: Option<u64>) -> Future<RecvStatus> {
        self.ctx.time_op("irecv", 0, |b| {
            let req = self.raw.irecv(src, tag);
            b.poll_future(move || req.try_status())
        })
    }
}

impl SchedulerModule for MpiModule {
    fn name(&self) -> &'static str {
        "mpi"
    }

    fn initialize(&self, rt: &Runtime) -> Result<(), ModuleError> {
        // Platform assertion (§II-C1): all library calls are funneled
        // through tasks at the Interconnect place.
        let interconnect = self.ctx.find_place(rt, &[PlaceKind::Interconnect])?;
        self.ctx.bind(rt, interconnect, ());
        Ok(())
    }

    fn finalize(&self, _rt: &Runtime) {
        self.ctx.unbind();
    }
}

impl std::fmt::Debug for MpiModule {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "MpiModule(rank {}/{})", self.rank(), self.nranks())
    }
}
