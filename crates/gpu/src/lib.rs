//! HiPER CUDA module (paper §II-C3) over a simulated accelerator.
//!
//! * [`GpuDevice`] / [`DeviceBuffer`] / [`Stream`] — the simulated device:
//!   two engine threads (kernel + copy, so copies and kernels overlap in
//!   real time), in-order streams, completion markers, and a PCIe transfer
//!   model charged in wall-clock time.
//! * [`GpuModule`] — the pluggable HiPER module: blocking and asynchronous
//!   transfers, asynchronous kernel launches returning futures, launches
//!   predicated on futures (`launch_await`, which skips the kernel and
//!   carries the error when a dependency is poisoned), registration as the
//!   handler for every `async_copy` touching a GPU place, and promise
//!   satisfaction via the shared polling-task technique.

mod device;
mod module;

pub use device::{DeviceBuffer, GpuDevice, OpDone, PcieModel, Stream};
pub use module::GpuModule;
