//! `async_copy`: asynchronous data movement between places (paper §II-B4).
//!
//! `async_copy(dst_loc, dst_place, src_loc, src_place, nbytes)` transfers
//! data between memory locations attached to places in the platform model
//! and returns a future. The runtime dispatches each request to a *copy
//! handler* selected by the (source kind, destination kind) pair; the
//! default handler covers host↔host copies, and modules register handlers
//! for the kinds they own — e.g. the CUDA module registers itself for every
//! pair that touches a GPU place (paper §II-C3).

use std::any::Any;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use hiper_platform::{PlaceId, PlaceKind};
use parking_lot::RwLock;

use crate::promise::{Future, Promise};
use crate::runtime::Runtime;

/// A byte buffer attached to a host place. The analogue of page-locked
/// transfer memory: applications stage data for `async_copy` in these.
pub struct HostBuffer {
    data: RwLock<Vec<u8>>,
}

impl HostBuffer {
    /// Allocates a zeroed buffer of `len` bytes.
    pub fn new(len: usize) -> Arc<HostBuffer> {
        Arc::new(HostBuffer {
            data: RwLock::new(vec![0; len]),
        })
    }

    /// Buffer length in bytes.
    pub fn len(&self) -> usize {
        self.data.read().len()
    }

    /// True if the buffer has zero length.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Copies `src` into the buffer starting at `offset`.
    pub fn write_bytes(&self, offset: usize, src: &[u8]) {
        self.data.write()[offset..offset + src.len()].copy_from_slice(src);
    }

    /// Copies `dst.len()` bytes out of the buffer starting at `offset`.
    pub fn read_bytes(&self, offset: usize, dst: &mut [u8]) {
        dst.copy_from_slice(&self.data.read()[offset..offset + dst.len()]);
    }

    /// Runs `f` over the raw bytes (shared).
    pub fn with<R>(&self, f: impl FnOnce(&[u8]) -> R) -> R {
        f(&self.data.read())
    }

    /// Runs `f` over the raw bytes (exclusive).
    pub fn with_mut<R>(&self, f: impl FnOnce(&mut [u8]) -> R) -> R {
        f(&mut self.data.write())
    }

    /// Typed store of an `f64` slice at element offset `elems`.
    pub fn write_f64s(&self, elems: usize, src: &[f64]) {
        let mut data = self.data.write();
        let base = elems * 8;
        for (i, v) in src.iter().enumerate() {
            data[base + i * 8..base + i * 8 + 8].copy_from_slice(&v.to_le_bytes());
        }
    }

    /// Typed load of an `f64` slice from element offset `elems`.
    pub fn read_f64s(&self, elems: usize, dst: &mut [f64]) {
        let data = self.data.read();
        let base = elems * 8;
        for (i, v) in dst.iter_mut().enumerate() {
            let mut b = [0u8; 8];
            b.copy_from_slice(&data[base + i * 8..base + i * 8 + 8]);
            *v = f64::from_le_bytes(b);
        }
    }
}

impl fmt::Debug for HostBuffer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("HostBuffer")
            .field("len", &self.len())
            .finish()
    }
}

/// One endpoint of an `async_copy`.
#[derive(Clone)]
pub enum MemLoc {
    /// A location in a [`HostBuffer`] (byte offset).
    Host { buf: Arc<HostBuffer>, offset: usize },
    /// A module-owned location (e.g. a GPU device buffer). The owning
    /// module's copy handler downcasts the token.
    Opaque {
        token: Arc<dyn Any + Send + Sync>,
        offset: usize,
    },
}

impl MemLoc {
    /// Host location helper.
    pub fn host(buf: &Arc<HostBuffer>, offset: usize) -> MemLoc {
        MemLoc::Host {
            buf: Arc::clone(buf),
            offset,
        }
    }

    /// Opaque (module-owned) location helper.
    pub fn opaque(token: Arc<dyn Any + Send + Sync>, offset: usize) -> MemLoc {
        MemLoc::Opaque { token, offset }
    }
}

impl fmt::Debug for MemLoc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemLoc::Host { offset, .. } => write!(f, "MemLoc::Host(+{})", offset),
            MemLoc::Opaque { offset, .. } => write!(f, "MemLoc::Opaque(+{})", offset),
        }
    }
}

/// A copy request handed to a handler.
pub struct CopyRequest {
    /// Destination location and its place.
    pub dst: MemLoc,
    /// Place the destination is attached to.
    pub dst_place: PlaceId,
    /// Source location.
    pub src: MemLoc,
    /// Place the source is attached to.
    pub src_place: PlaceId,
    /// Bytes to transfer.
    pub nbytes: usize,
}

/// A registered copy handler: performs (or schedules) the transfer and
/// satisfies `done` on completion.
pub type CopyHandler = dyn Fn(&Runtime, CopyRequest, Promise<()>) + Send + Sync;

/// Registry mapping (src kind, dst kind) to handlers.
pub struct CopyRegistry {
    handlers: RwLock<HashMap<(PlaceKind, PlaceKind), Arc<CopyHandler>>>,
}

impl CopyRegistry {
    pub(crate) fn new() -> CopyRegistry {
        CopyRegistry {
            handlers: RwLock::new(HashMap::new()),
        }
    }

    /// Registers (or replaces) the handler for transfers from `src` kinds to
    /// `dst` kinds.
    pub fn register(&self, src: PlaceKind, dst: PlaceKind, handler: Arc<CopyHandler>) {
        self.handlers.write().insert((src, dst), handler);
    }

    fn lookup(&self, src: &PlaceKind, dst: &PlaceKind) -> Option<Arc<CopyHandler>> {
        self.handlers
            .read()
            .get(&(src.clone(), dst.clone()))
            .cloned()
    }
}

/// Installs the built-in host↔host handler (memcpy scheduled at the
/// destination place).
pub(crate) fn register_default_handlers(rt: &Runtime) {
    let handler: Arc<CopyHandler> = Arc::new(|rt, req, done| {
        rt.spawn_at(req.dst_place, move || {
            host_to_host(&req);
            done.put(());
        });
    });
    rt.inner
        .copy_registry
        .register(PlaceKind::SystemMemory, PlaceKind::SystemMemory, handler);
}

fn host_to_host(req: &CopyRequest) {
    match (&req.src, &req.dst) {
        (
            MemLoc::Host {
                buf: src,
                offset: so,
            },
            MemLoc::Host {
                buf: dst,
                offset: do_,
            },
        ) => {
            let mut tmp = vec![0u8; req.nbytes];
            src.read_bytes(*so, &mut tmp);
            dst.write_bytes(*do_, &tmp);
        }
        _ => panic!("default copy handler requires host locations on both sides"),
    }
}

impl Runtime {
    /// `async_copy`: asynchronously transfers `nbytes` from `src` (attached
    /// to `src_place`) to `dst` (attached to `dst_place`). Returns a future
    /// satisfied on completion.
    ///
    /// # Panics
    /// Panics if no handler is registered for the place-kind pair (e.g. a
    /// GPU copy without the CUDA module installed).
    pub fn async_copy(
        &self,
        dst: MemLoc,
        dst_place: PlaceId,
        src: MemLoc,
        src_place: PlaceId,
        nbytes: usize,
    ) -> Future<()> {
        let src_kind = self.config().graph.place(src_place).kind.clone();
        let dst_kind = self.config().graph.place(dst_place).kind.clone();
        let handler = self
            .inner
            .copy_registry
            .lookup(&src_kind, &dst_kind)
            .unwrap_or_else(|| {
                panic!(
                    "no copy handler registered for {} -> {}; is the owning module installed?",
                    src_kind, dst_kind
                )
            });
        let promise = Promise::new();
        let future = promise.future();
        handler(
            self,
            CopyRequest {
                dst,
                dst_place,
                src,
                src_place,
                nbytes,
            },
            promise,
        );
        future
    }

    /// Access to the copy-handler registry (for module registration).
    pub fn copy_registry(&self) -> &CopyRegistry {
        &self.inner.copy_registry
    }
}
