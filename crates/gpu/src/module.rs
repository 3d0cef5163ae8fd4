//! The HiPER CUDA module (paper §II-C3).
//!
//! Supports blocking data transfers, asynchronous data transfers and
//! asynchronous kernels. It is the one module that registers special-purpose
//! functions with the runtime: it claims every `async_copy` that reads or
//! writes a GPU place, and it uses the same polling technique as the MPI
//! module (paper §II-C1) to turn device completion markers into HiPER
//! promises.

use std::sync::Arc;

use hiper_platform::{PlaceId, PlaceKind};
use hiper_runtime::{
    CopyHandler, CopyRequest, Future, MemLoc, ModuleCtx, ModuleError, Promise, Runtime,
    SchedulerModule, TaskError,
};

use crate::device::{DeviceBuffer, GpuDevice, OpDone, PcieModel, Stream};

type Ctx = ModuleCtx<Devices>;

/// The HiPER CUDA module. Devices are created at initialization, one per GPU
/// place in the platform model (the `device_index` place attribute selects
/// the device index).
pub struct GpuModule {
    pcie: PcieModel,
    ctx: Arc<Ctx>,
}

/// The module's state while bound; its place is the first device's.
struct Devices {
    devices: Vec<Arc<GpuDevice>>,
    /// Place of each device (indexed by device index).
    places: Vec<PlaceId>,
    /// Internal per-device stream for module-initiated (`async_copy`)
    /// transfers.
    copy_streams: Vec<Stream>,
}

/// The poll that turns a device completion marker into a HiPER promise
/// through the module's polling task.
fn completion(op: Arc<OpDone>) -> impl FnMut() -> Option<()> + Send + 'static {
    move || op.test().then_some(())
}

impl GpuModule {
    /// Creates a module with the default PCIe model.
    pub fn new() -> Arc<GpuModule> {
        Self::with_pcie(PcieModel::default())
    }

    /// Creates a module with a custom PCIe model.
    pub fn with_pcie(pcie: PcieModel) -> Arc<GpuModule> {
        Arc::new(GpuModule {
            pcie,
            ctx: Arc::new(ModuleCtx::new("cuda", "cuda-poll")),
        })
    }

    /// The platform place of `device`.
    pub fn place_of(&self, device: usize) -> PlaceId {
        self.ctx.with(|b| b.state.places[device])
    }

    /// Allocates device memory (cudaMalloc).
    pub fn alloc(&self, device: usize, bytes: usize) -> Arc<DeviceBuffer> {
        self.ctx.with(|b| b.state.devices[device].alloc(bytes))
    }

    /// Creates a stream on `device` (cudaStreamCreate).
    pub fn create_stream(&self, device: usize) -> Stream {
        self.ctx.with(|b| b.state.devices[device].create_stream())
    }

    /// Asynchronous kernel launch returning a future.
    pub fn launch_future(
        &self,
        stream: &Stream,
        kernel: impl FnOnce() + Send + 'static,
    ) -> Future<()> {
        self.ctx.time_op("launch", 0, |b| {
            let done = b.state.devices[stream.device()].launch_kernel(stream, kernel);
            b.poll_future(completion(done))
        })
    }

    /// Kernel launch predicated on dependencies: the launch happens when
    /// every `dep` is satisfied (the §II-D `forasync_cuda(..., deps)`
    /// pattern). A poisoned dependency skips the kernel and poisons the
    /// launch's future with its error.
    pub fn launch_await(
        &self,
        stream: &Stream,
        deps: &[Future<()>],
        kernel: impl FnOnce() + Send + 'static,
    ) -> Future<()> {
        let (ctx, stream) = (Arc::clone(&self.ctx), stream.clone());
        hiper_runtime::when_all(deps).and_then(move |_| {
            let launched = ctx.try_with(|b| {
                let done = b.state.devices[stream.device()].launch_kernel(&stream, kernel);
                b.poll_future(completion(done))
            });
            // A dependency put after shutdown finds the module unbound: the
            // launch's future is poisoned, the putter's thread unharmed.
            launched.unwrap_or_else(|| {
                let promise = Promise::new();
                let fut = promise.future();
                promise.poison(TaskError::new(
                    "cuda: kernel launch after module finalization",
                ));
                fut
            })
        })
    }

    /// Blocking H2D copy (cudaMemcpy): stalls the calling OS thread for the
    /// modeled PCIe time.
    pub fn memcpy_h2d_blocking(
        &self,
        stream: &Stream,
        dst: &Arc<DeviceBuffer>,
        dst_off: usize,
        src: Vec<u8>,
    ) {
        self.ctx.time_op("memcpy_h2d", src.len() as u64, |b| {
            b.state.devices[stream.device()].memcpy_h2d_blocking(stream, dst, dst_off, src)
        })
    }

    /// Blocking D2H copy (cudaMemcpy).
    pub fn memcpy_d2h_blocking(
        &self,
        stream: &Stream,
        src: &Arc<DeviceBuffer>,
        src_off: usize,
        nbytes: usize,
    ) -> Vec<u8> {
        self.ctx.time_op("memcpy_d2h", nbytes as u64, |b| {
            b.state.devices[stream.device()].memcpy_d2h_blocking(stream, src, src_off, nbytes)
        })
    }

    /// Async H2D copy returning a future.
    pub fn memcpy_h2d_future(
        &self,
        stream: &Stream,
        dst: &Arc<DeviceBuffer>,
        dst_off: usize,
        src: Vec<u8>,
    ) -> Future<()> {
        self.ctx.with(|b| {
            let done = b.state.devices[stream.device()].memcpy_h2d_async(stream, dst, dst_off, src);
            b.poll_future(completion(done))
        })
    }

    /// Async D2H copy returning a future on the fetched bytes.
    pub fn memcpy_d2h_future(
        &self,
        stream: &Stream,
        src: &Arc<DeviceBuffer>,
        src_off: usize,
        nbytes: usize,
    ) -> Future<Vec<u8>> {
        let promise = Promise::new();
        let fut = promise.future();
        self.ctx.with(|b| {
            b.state.devices[stream.device()].memcpy_d2h_async(
                stream,
                src,
                src_off,
                nbytes,
                move |data| promise.put(data),
            );
        });
        fut
    }

    /// Blocks until `device` has drained all submitted work.
    pub fn device_synchronize(&self, device: usize) {
        self.ctx.with(|b| b.state.devices[device].synchronize());
    }

    /// `MemLoc` for an `async_copy` endpoint on a device buffer.
    pub fn loc(buf: &Arc<DeviceBuffer>, offset: usize) -> MemLoc {
        MemLoc::opaque(
            Arc::clone(buf) as Arc<dyn std::any::Any + Send + Sync>,
            offset,
        )
    }
}

fn handle_copy(ctx: &Ctx, rt: &Runtime, req: CopyRequest, done: Promise<()>) {
    // A misrouted or malformed copy request fails the copy's promise with a
    // typed error (poison propagates through the owning finish scope)
    // instead of panicking the worker thread.
    let mut done = Some(done);
    let result = ctx.try_with(|b| {
        let op = start_copy(&b.state, rt, &req)?;
        b.complete_when(done.take().expect("copy started once"), completion(op));
        Ok(())
    });
    let finalized = || ModuleError::protocol("cuda", "async_copy after module finalization");
    if let (Err(err), Some(done)) = (result.unwrap_or_else(|| Err(finalized())), done) {
        done.poison(TaskError::new(err.to_string()));
    }
}

/// Starts the device transfer behind one `async_copy` and returns its
/// completion marker.
fn start_copy(
    state: &Devices,
    rt: &Runtime,
    req: &CopyRequest,
) -> Result<Arc<OpDone>, ModuleError> {
    let src_kind = rt.config().graph.place(req.src_place).kind.clone();
    let dst_kind = rt.config().graph.place(req.dst_place).kind.clone();
    match (src_kind, dst_kind) {
        (PlaceKind::SystemMemory, PlaceKind::GpuMemory) => {
            let dev = device_of_place(state, req.dst_place)?;
            let (dst, dst_off) = downcast_buffer(&req.dst)?;
            let mut src = vec![0u8; req.nbytes];
            match &req.src {
                MemLoc::Host { buf, offset } => buf.read_bytes(*offset, &mut src),
                _ => {
                    return Err(ModuleError::protocol(
                        "cuda",
                        "H2D copy source must be a host buffer",
                    ))
                }
            }
            Ok(state.devices[dev].memcpy_h2d_async(&state.copy_streams[dev], &dst, dst_off, src))
        }
        (PlaceKind::GpuMemory, PlaceKind::SystemMemory) => {
            let dev = device_of_place(state, req.src_place)?;
            let (src, src_off) = downcast_buffer(&req.src)?;
            let (host, host_off) = match &req.dst {
                MemLoc::Host { buf, offset } => (Arc::clone(buf), *offset),
                _ => {
                    return Err(ModuleError::protocol(
                        "cuda",
                        "D2H copy destination must be a host buffer",
                    ))
                }
            };
            Ok(state.devices[dev].memcpy_d2h_async(
                &state.copy_streams[dev],
                &src,
                src_off,
                req.nbytes,
                move |data| host.write_bytes(host_off, &data),
            ))
        }
        (PlaceKind::GpuMemory, PlaceKind::GpuMemory) => {
            let sdev = device_of_place(state, req.src_place)?;
            let (src, src_off) = downcast_buffer(&req.src)?;
            let (dst, dst_off) = downcast_buffer(&req.dst)?;
            Ok(state.devices[sdev].memcpy_d2d_async(
                &state.copy_streams[sdev],
                &dst,
                dst_off,
                &src,
                src_off,
                req.nbytes,
            ))
        }
        (s, d) => Err(ModuleError::protocol(
            "cuda",
            format!("cannot handle {} -> {} copies", s, d),
        )),
    }
}

fn device_of_place(state: &Devices, place: PlaceId) -> Result<usize, ModuleError> {
    state
        .places
        .iter()
        .position(|&p| p == place)
        .ok_or_else(|| ModuleError::protocol("cuda", "place is not a registered GPU device"))
}

fn downcast_buffer(loc: &MemLoc) -> Result<(Arc<DeviceBuffer>, usize), ModuleError> {
    match loc {
        MemLoc::Opaque { token, offset } => Arc::clone(token)
            .downcast::<DeviceBuffer>()
            .map(|buf| (buf, *offset))
            .map_err(|_| ModuleError::protocol("cuda", "opaque token is not a DeviceBuffer")),
        _ => Err(ModuleError::protocol(
            "cuda",
            "GPU-side location must be an opaque DeviceBuffer token",
        )),
    }
}

impl SchedulerModule for GpuModule {
    fn name(&self) -> &'static str {
        "cuda"
    }

    fn initialize(&self, rt: &Runtime) -> Result<(), ModuleError> {
        self.ctx.find_place(rt, &[PlaceKind::GpuMemory])?;
        let graph = &rt.config().graph;
        let gpu_places = graph.places_of_kind(&PlaceKind::GpuMemory);
        // Order devices by their `device_index` attribute (default: place
        // order).
        let mut ordered: Vec<(usize, PlaceId)> = gpu_places
            .iter()
            .enumerate()
            .map(|(i, &p)| {
                let idx = graph
                    .place(p)
                    .attr("device_index")
                    .map(|v| v as usize)
                    .unwrap_or(i);
                (idx, p)
            })
            .collect();
        ordered.sort_by_key(|(i, _)| *i);
        let places: Vec<PlaceId> = ordered.iter().map(|(_, p)| *p).collect();
        let devices: Vec<Arc<GpuDevice>> = ordered
            .iter()
            .map(|(i, _)| GpuDevice::new(*i, self.pcie))
            .collect();
        let copy_streams: Vec<Stream> = devices.iter().map(|d| d.create_stream()).collect();
        // Completion sweeps are placed at the first GPU place: GPU work is
        // scheduled with everything else on the unified runtime.
        let first = places[0];
        let state = Devices {
            devices,
            places,
            copy_streams,
        };
        self.ctx.bind(rt, first, state);
        Ok(())
    }

    fn finalize(&self, _rt: &Runtime) {
        for d in self.ctx.unbind().map(|s| s.devices).unwrap_or_default() {
            d.stop();
        }
    }

    fn register_copy_handlers(&self, rt: &Runtime) {
        // Claim every (src, dst) kind pair that touches a GPU place (paper
        // §II-C3).
        let reg = rt.copy_registry();
        for (src, dst) in [
            (PlaceKind::SystemMemory, PlaceKind::GpuMemory),
            (PlaceKind::GpuMemory, PlaceKind::SystemMemory),
            (PlaceKind::GpuMemory, PlaceKind::GpuMemory),
        ] {
            let ctx = Arc::clone(&self.ctx);
            let handler: Arc<CopyHandler> =
                Arc::new(move |rt, req, done| handle_copy(&ctx, rt, req, done));
            reg.register(src, dst, handler);
        }
    }
}

impl std::fmt::Debug for GpuModule {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("GpuModule")
    }
}
