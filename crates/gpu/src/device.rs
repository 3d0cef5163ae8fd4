//! The simulated accelerator (the K20X of our substitute Titan).
//!
//! A device has two engines, each its own OS thread: a *kernel engine* and a
//! *copy engine* (the DMA engine of a real GPU), so copies and kernels can
//! genuinely overlap in wall-clock time. Work is submitted as operations on
//! *streams*; operations within one stream execute in order (enforced with
//! explicit dependencies), operations in different streams may overlap.
//!
//! Copies are charged PCIe time (`bytes / bandwidth + overhead`) in real
//! time, so a *blocking* `cudaMemcpy` really stalls its calling thread while
//! an asynchronous copy does not — the effect the GEO benchmark measures
//! (paper §III-B: "HiPER consistently improves performance ~2% by reducing
//! blocking CUDA operations").

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::{Condvar, Mutex, RwLock};

/// PCIe-like transfer model.
#[derive(Debug, Clone, Copy)]
pub struct PcieModel {
    /// Transfer bandwidth in bytes/second.
    pub bandwidth: f64,
    /// Fixed per-transfer overhead.
    pub overhead: Duration,
}

impl Default for PcieModel {
    fn default() -> Self {
        PcieModel {
            bandwidth: 6.0e9, // PCIe gen2 x16 era (K20X)
            overhead: Duration::from_micros(10),
        }
    }
}

impl PcieModel {
    /// Modeled duration of a transfer.
    pub fn transfer_time(&self, bytes: usize) -> Duration {
        self.overhead + Duration::from_secs_f64(bytes as f64 / self.bandwidth)
    }
}

/// Device memory: a byte buffer resident on a device. Host code must move
/// data with memcpy operations; kernels access it through the typed views.
pub struct DeviceBuffer {
    device: usize,
    data: RwLock<Vec<u8>>,
}

impl DeviceBuffer {
    /// Owning device index.
    pub fn device(&self) -> usize {
        self.device
    }

    /// Buffer length in bytes.
    pub fn len(&self) -> usize {
        self.data.read().len()
    }

    /// True if zero-length.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Kernel-side byte access (shared).
    pub fn with<R>(&self, f: impl FnOnce(&[u8]) -> R) -> R {
        f(&self.data.read())
    }

    /// Kernel-side byte access (exclusive).
    pub fn with_mut<R>(&self, f: impl FnOnce(&mut [u8]) -> R) -> R {
        f(&mut self.data.write())
    }

    /// Kernel-side typed view: the buffer as `&[f64]`.
    pub fn with_f64<R>(&self, f: impl FnOnce(&[f64]) -> R) -> R {
        let guard = self.data.read();
        let n = guard.len() / 8;
        let mut tmp = vec![0f64; n];
        bytes_to_f64(&guard, &mut tmp);
        f(&tmp)
    }

    /// Kernel-side typed mutation: the buffer as `&mut Vec<f64>` (copied in
    /// and out; device compute in this simulator is host compute anyway).
    pub fn with_f64_mut<R>(&self, f: impl FnOnce(&mut [f64]) -> R) -> R {
        let mut guard = self.data.write();
        let n = guard.len() / 8;
        let mut tmp = vec![0f64; n];
        bytes_to_f64(&guard, &mut tmp);
        let r = f(&mut tmp);
        f64_to_bytes(&tmp, &mut guard);
        r
    }

    pub(crate) fn write_bytes(&self, offset: usize, src: &[u8]) {
        self.data.write()[offset..offset + src.len()].copy_from_slice(src);
    }

    pub(crate) fn read_bytes(&self, offset: usize, dst: &mut [u8]) {
        dst.copy_from_slice(&self.data.read()[offset..offset + dst.len()]);
    }
}

fn bytes_to_f64(bytes: &[u8], out: &mut [f64]) {
    for (i, v) in out.iter_mut().enumerate() {
        *v = f64::from_le_bytes(bytes[i * 8..i * 8 + 8].try_into().unwrap());
    }
}

fn f64_to_bytes(vals: &[f64], out: &mut [u8]) {
    for (i, v) in vals.iter().enumerate() {
        out[i * 8..i * 8 + 8].copy_from_slice(&v.to_le_bytes());
    }
}

impl std::fmt::Debug for DeviceBuffer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DeviceBuffer")
            .field("device", &self.device)
            .field("len", &self.len())
            .finish()
    }
}

/// Completion marker of one device operation (the simulator's cudaEvent).
pub struct OpDone {
    done: AtomicBool,
    mutex: Mutex<()>,
    cond: Condvar,
}

impl OpDone {
    pub(crate) fn new() -> Arc<OpDone> {
        Arc::new(OpDone {
            done: AtomicBool::new(false),
            mutex: Mutex::new(()),
            cond: Condvar::new(),
        })
    }

    /// An already-complete marker.
    pub fn ready() -> Arc<OpDone> {
        let d = OpDone::new();
        d.set();
        d
    }

    pub(crate) fn set(&self) {
        let _guard = self.mutex.lock();
        self.done.store(true, Ordering::Release);
        self.cond.notify_all();
    }

    /// Nonblocking completion poll (cudaEventQuery).
    pub fn test(&self) -> bool {
        self.done.load(Ordering::Acquire)
    }

    /// Blocks the calling OS thread (cudaEventSynchronize / the blocking
    /// half of cudaMemcpy).
    pub fn wait(&self) {
        if self.test() {
            return;
        }
        let mut guard = self.mutex.lock();
        while !self.test() {
            self.cond.wait(&mut guard);
        }
    }
}

impl std::fmt::Debug for OpDone {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "OpDone({})", self.test())
    }
}

enum OpKind {
    Kernel(Box<dyn FnOnce() + Send>),
    Sleep(Duration),
}

struct Op {
    deps: Vec<Arc<OpDone>>,
    kind: OpKind,
    done: Arc<OpDone>,
}

struct Engine {
    queue: Mutex<VecDeque<Op>>,
    cond: Condvar,
    shutdown: AtomicBool,
}

impl Engine {
    fn new() -> Arc<Engine> {
        Arc::new(Engine {
            queue: Mutex::new(VecDeque::new()),
            cond: Condvar::new(),
            shutdown: AtomicBool::new(false),
        })
    }

    fn submit(&self, op: Op) {
        self.queue.lock().push_back(op);
        self.cond.notify_all();
    }

    fn run(&self) {
        loop {
            let op = {
                let mut q = self.queue.lock();
                loop {
                    if let Some(op) = q.pop_front() {
                        break op;
                    }
                    if self.shutdown.load(Ordering::Acquire) {
                        return;
                    }
                    self.cond.wait(&mut q);
                }
            };
            for dep in &op.deps {
                dep.wait();
            }
            match op.kind {
                OpKind::Kernel(f) => f(),
                OpKind::Sleep(d) => std::thread::sleep(d),
            }
            op.done.set();
        }
    }

    fn stop(&self) {
        self.shutdown.store(true, Ordering::Release);
        self.cond.notify_all();
    }
}

/// A CUDA-like stream: in-order per stream, overlappable across streams.
#[derive(Clone)]
pub struct Stream {
    device: usize,
    id: u64,
    last: Arc<Mutex<Arc<OpDone>>>,
}

impl Stream {
    /// Owning device index.
    pub fn device(&self) -> usize {
        self.device
    }

    /// Stream id (diagnostics).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The completion marker of the most recently enqueued op.
    pub fn last_op(&self) -> Arc<OpDone> {
        Arc::clone(&self.last.lock())
    }

    /// Blocks the calling thread until every enqueued op has completed
    /// (cudaStreamSynchronize).
    pub fn synchronize(&self) {
        self.last_op().wait();
    }
}

impl std::fmt::Debug for Stream {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Stream(dev {}, id {})", self.device, self.id)
    }
}

/// One simulated accelerator.
pub struct GpuDevice {
    index: usize,
    pcie: PcieModel,
    kernel_engine: Arc<Engine>,
    copy_engine: Arc<Engine>,
    threads: Mutex<Vec<std::thread::JoinHandle<()>>>,
    next_stream: AtomicU64,
}

impl GpuDevice {
    /// Brings up a device with its two engine threads.
    pub fn new(index: usize, pcie: PcieModel) -> Arc<GpuDevice> {
        let kernel_engine = Engine::new();
        let copy_engine = Engine::new();
        let mut threads = Vec::new();
        for (name, engine) in [("kern", &kernel_engine), ("copy", &copy_engine)] {
            let engine = Arc::clone(engine);
            threads.push(
                std::thread::Builder::new()
                    .name(format!("hiper-gpu{}-{}", index, name))
                    .spawn(move || {
                        // PCIe times are modeled with `thread::sleep`;
                        // without this each one overshoots by ~57 µs.
                        hiper_trace::clock::precise_timers();
                        engine.run()
                    })
                    .expect("failed to spawn device engine"),
            );
        }
        Arc::new(GpuDevice {
            index,
            pcie,
            kernel_engine,
            copy_engine,
            threads: Mutex::new(threads),
            next_stream: AtomicU64::new(1),
        })
    }

    /// Device index.
    pub fn index(&self) -> usize {
        self.index
    }

    /// The PCIe model in force.
    pub fn pcie(&self) -> PcieModel {
        self.pcie
    }

    /// Allocates zeroed device memory (cudaMalloc).
    pub fn alloc(&self, bytes: usize) -> Arc<DeviceBuffer> {
        Arc::new(DeviceBuffer {
            device: self.index,
            data: RwLock::new(vec![0u8; bytes]),
        })
    }

    /// Creates a stream (cudaStreamCreate).
    pub fn create_stream(self: &Arc<Self>) -> Stream {
        Stream {
            device: self.index,
            id: self.next_stream.fetch_add(1, Ordering::Relaxed),
            last: Arc::new(Mutex::new(OpDone::ready())),
        }
    }

    fn chain(&self, stream: &Stream, kind: OpKind, engine: &Engine) -> Arc<OpDone> {
        let done = OpDone::new();
        let mut last = stream.last.lock();
        engine.submit(Op {
            deps: vec![Arc::clone(&last)],
            kind,
            done: Arc::clone(&done),
        });
        *last = Arc::clone(&done);
        done
    }

    /// Launches a kernel (an arbitrary closure over device buffers) on
    /// `stream`; returns its completion marker (cudaLaunchKernel).
    pub fn launch_kernel(
        &self,
        stream: &Stream,
        kernel: impl FnOnce() + Send + 'static,
    ) -> Arc<OpDone> {
        assert_eq!(
            stream.device, self.index,
            "stream belongs to another device"
        );
        self.chain(
            stream,
            OpKind::Kernel(Box::new(kernel)),
            &self.kernel_engine,
        )
    }

    /// Enqueues an async host-to-device copy (cudaMemcpyAsync H2D).
    pub fn memcpy_h2d_async(
        &self,
        stream: &Stream,
        dst: &Arc<DeviceBuffer>,
        dst_off: usize,
        src: Vec<u8>,
    ) -> Arc<OpDone> {
        assert_eq!(dst.device, self.index, "buffer belongs to another device");
        let pcie = self.pcie;
        let dst = Arc::clone(dst);
        let nbytes = src.len();
        self.chain(
            stream,
            OpKind::Kernel(Box::new(move || {
                std::thread::sleep(pcie.transfer_time(nbytes));
                dst.write_bytes(dst_off, &src);
            })),
            &self.copy_engine,
        )
    }

    /// Enqueues an async device-to-host copy; `sink` receives the bytes on
    /// the copy engine after the modeled PCIe time (cudaMemcpyAsync D2H).
    pub fn memcpy_d2h_async(
        &self,
        stream: &Stream,
        src: &Arc<DeviceBuffer>,
        src_off: usize,
        nbytes: usize,
        sink: impl FnOnce(Vec<u8>) + Send + 'static,
    ) -> Arc<OpDone> {
        assert_eq!(src.device, self.index, "buffer belongs to another device");
        let pcie = self.pcie;
        let src = Arc::clone(src);
        self.chain(
            stream,
            OpKind::Kernel(Box::new(move || {
                std::thread::sleep(pcie.transfer_time(nbytes));
                let mut out = vec![0u8; nbytes];
                src.read_bytes(src_off, &mut out);
                sink(out);
            })),
            &self.copy_engine,
        )
    }

    /// Enqueues an async device-to-device copy (peer or same device).
    pub fn memcpy_d2d_async(
        &self,
        stream: &Stream,
        dst: &Arc<DeviceBuffer>,
        dst_off: usize,
        src: &Arc<DeviceBuffer>,
        src_off: usize,
        nbytes: usize,
    ) -> Arc<OpDone> {
        let pcie = self.pcie;
        let dst = Arc::clone(dst);
        let src = Arc::clone(src);
        self.chain(
            stream,
            OpKind::Kernel(Box::new(move || {
                std::thread::sleep(pcie.transfer_time(nbytes));
                let mut tmp = vec![0u8; nbytes];
                src.read_bytes(src_off, &mut tmp);
                dst.write_bytes(dst_off, &tmp);
            })),
            &self.copy_engine,
        )
    }

    /// Blocking host-to-device copy: stalls the calling thread for the PCIe
    /// time (cudaMemcpy H2D) — what the paper's reference GEO pays.
    pub fn memcpy_h2d_blocking(
        &self,
        stream: &Stream,
        dst: &Arc<DeviceBuffer>,
        dst_off: usize,
        src: Vec<u8>,
    ) {
        self.memcpy_h2d_async(stream, dst, dst_off, src).wait();
    }

    /// Blocking device-to-host copy.
    pub fn memcpy_d2h_blocking(
        &self,
        stream: &Stream,
        src: &Arc<DeviceBuffer>,
        src_off: usize,
        nbytes: usize,
    ) -> Vec<u8> {
        let out = Arc::new(Mutex::new(Vec::new()));
        let out2 = Arc::clone(&out);
        self.memcpy_d2h_async(stream, src, src_off, nbytes, move |data| {
            *out2.lock() = data;
        })
        .wait();
        let result = std::mem::take(&mut *out.lock());
        result
    }

    /// Blocks until both engines have drained every submitted op
    /// (cudaDeviceSynchronize over the streams the caller tracks — here we
    /// insert fences on both engines).
    pub fn synchronize(&self) {
        for engine in [&self.kernel_engine, &self.copy_engine] {
            let done = OpDone::new();
            engine.submit(Op {
                deps: Vec::new(),
                kind: OpKind::Sleep(Duration::ZERO),
                done: Arc::clone(&done),
            });
            done.wait();
        }
    }

    /// Stops the engine threads. Further submissions are not executed.
    pub fn stop(&self) {
        self.kernel_engine.stop();
        self.copy_engine.stop();
        for t in self.threads.lock().drain(..) {
            let _ = t.join();
        }
    }
}

impl std::fmt::Debug for GpuDevice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "GpuDevice({})", self.index)
    }
}
