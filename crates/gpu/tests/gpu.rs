//! Tests for the simulated device and the CUDA module.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use hiper_gpu::{GpuDevice, GpuModule, PcieModel};
use hiper_platform::autogen;
use hiper_runtime::{HostBuffer, MemLoc, Promise, RuntimeBuilder, SchedulerModule};

fn fast_pcie() -> PcieModel {
    PcieModel {
        bandwidth: 1e12,
        overhead: Duration::from_micros(1),
    }
}

fn gpu_runtime(workers: usize, gpus: usize) -> (hiper_runtime::Runtime, Arc<GpuModule>) {
    let cfg = autogen::smp_with_gpus(workers, gpus);
    let gpu = GpuModule::with_pcie(fast_pcie());
    let rt = RuntimeBuilder::new(cfg)
        .module(Arc::clone(&gpu) as Arc<dyn SchedulerModule>)
        .build()
        .unwrap();
    (rt, gpu)
}

#[test]
fn device_kernel_and_copies_roundtrip() {
    let dev = GpuDevice::new(0, fast_pcie());
    let stream = dev.create_stream();
    let buf = dev.alloc(8 * 8);
    dev.memcpy_h2d_blocking(&stream, &buf, 0, vec![1u8; 64]);
    // Kernel doubles every byte.
    let b2 = Arc::clone(&buf);
    dev.launch_kernel(&stream, move || {
        b2.with_mut(|bytes| {
            for b in bytes.iter_mut() {
                *b *= 2;
            }
        });
    });
    let out = dev.memcpy_d2h_blocking(&stream, &buf, 0, 64);
    assert_eq!(out, vec![2u8; 64]);
    dev.stop();
}

#[test]
fn stream_operations_are_ordered() {
    let dev = GpuDevice::new(0, fast_pcie());
    let stream = dev.create_stream();
    let buf = dev.alloc(8);
    // Three kernels appending into the same cell; order must hold.
    for i in 1..=3u8 {
        let b = Arc::clone(&buf);
        dev.launch_kernel(&stream, move || {
            b.with_mut(|bytes| {
                bytes[0] = bytes[0] * 10 + i;
            });
        });
    }
    stream.synchronize();
    buf.with(|bytes| assert_eq!(bytes[0], 123));
    dev.stop();
}

#[test]
fn different_streams_may_overlap() {
    // A slow copy on stream A must not delay an independent kernel on
    // stream B (separate engines).
    let dev = GpuDevice::new(
        0,
        PcieModel {
            bandwidth: 1e6, // 1 MB/s: 100KB takes 100ms
            overhead: Duration::ZERO,
        },
    );
    let sa = dev.create_stream();
    let sb = dev.create_stream();
    let buf = dev.alloc(100_000);
    let copy_op = dev.memcpy_h2d_async(&sa, &buf, 0, vec![0u8; 100_000]);
    let start = Instant::now();
    let kernel_op = dev.launch_kernel(&sb, || {});
    kernel_op.wait();
    assert!(
        start.elapsed() < Duration::from_millis(50),
        "kernel waited on an unrelated copy"
    );
    copy_op.wait();
    dev.stop();
}

#[test]
fn pcie_time_is_charged_in_real_time() {
    // A modeled H2D copy never completes before its PCIe time, on a slow
    // link (50 kB at 1 MB/s = 50 ms) and on the default model, whose short
    // copies are mostly its 10 µs overhead, below the default 50 µs timer
    // slack. Only the lower bound is asserted; how late a copy lands
    // depends on the host.
    let slow = PcieModel {
        bandwidth: 1e6,
        overhead: Duration::ZERO,
    };
    let cases: [(PcieModel, &[usize], usize); 2] = [
        (slow, &[50_000], 1),
        (PcieModel::default(), &[0, 4 << 10, 256 << 10], 20),
    ];
    for (pcie, sizes, reps) in cases {
        let dev = GpuDevice::new(0, pcie);
        let stream = dev.create_stream();
        for &bytes in sizes {
            let buf = dev.alloc(bytes);
            let floor = pcie.transfer_time(bytes);
            for _ in 0..reps {
                let start = Instant::now();
                dev.memcpy_h2d_blocking(&stream, &buf, 0, vec![7u8; bytes]);
                let took = start.elapsed();
                assert!(
                    took >= floor,
                    "{bytes} B copy took {took:?} < modeled {floor:?}"
                );
            }
        }
        dev.stop();
    }
}

#[test]
fn typed_views() {
    let dev = GpuDevice::new(0, fast_pcie());
    let buf = dev.alloc(4 * 8);
    buf.with_f64_mut(|vals| {
        for (i, v) in vals.iter_mut().enumerate() {
            *v = i as f64 + 0.5;
        }
    });
    let sum = buf.with_f64(|vals| vals.iter().sum::<f64>());
    assert_eq!(sum, 0.5 + 1.5 + 2.5 + 3.5);
    dev.stop();
}

#[test]
fn module_requires_gpu_place() {
    let cfg = autogen::smp(1);
    let gpu = GpuModule::new();
    let result = RuntimeBuilder::new(cfg)
        .module(gpu as Arc<dyn SchedulerModule>)
        .build();
    assert!(result.is_err());
}

#[test]
fn module_kernel_future_composes_with_tasks() {
    let (rt, gpu) = gpu_runtime(2, 1);
    let rt2 = rt.clone();
    rt.block_on(move || {
        let stream = gpu.create_stream(0);
        let buf = gpu.alloc(0, 8);
        let b = Arc::clone(&buf);
        let kf = gpu.launch_future(&stream, move || {
            b.with_mut(|bytes| bytes[0] = 42);
        });
        // A host task predicated on kernel completion (unified scheduling).
        let after = rt2.spawn_future_await(&kf, move || buf.with(|bytes| bytes[0]));
        assert_eq!(after.get(), 42);
    });
    rt.shutdown();
}

#[test]
fn module_launch_await_waits_for_dependencies() {
    let (rt, gpu) = gpu_runtime(2, 1);
    rt.block_on(move || {
        let stream = gpu.create_stream(0);
        let buf = gpu.alloc(0, 8);
        let b1 = Arc::clone(&buf);
        // Dependency: H2D copy must land before the kernel reads.
        let dep = gpu.memcpy_h2d_future(&stream, &buf, 0, vec![7u8; 8]);
        let b2 = Arc::clone(&buf);
        let kf = gpu.launch_await(&stream, &[dep], move || {
            b2.with_mut(|bytes| bytes[1] = bytes[0] + 1);
        });
        kf.wait();
        assert_eq!(b1.with(|bytes| (bytes[0], bytes[1])), (7, 8));
    });
    rt.shutdown();
}

#[test]
fn launch_await_after_finalize_poisons_its_future() {
    let (rt, gpu) = gpu_runtime(1, 1);
    let stream = gpu.create_stream(0);
    let dep = Promise::new();
    let ran = Arc::new(AtomicBool::new(false));
    let ran2 = Arc::clone(&ran);
    let launched = gpu.launch_await(&stream, &[dep.future()], move || {
        ran2.store(true, Ordering::SeqCst);
    });
    rt.shutdown();
    // The dependency fires after the module unbound: the put returns and
    // the launch's future fails instead of the putter's thread panicking.
    dep.put(());
    let err = launched.poison_error().expect("launch future poisoned");
    assert!(err.message.contains("after module finalization"), "{}", err);
    assert!(
        !ran.load(Ordering::SeqCst),
        "kernel ran on a stopped device"
    );
}

#[test]
fn async_copy_dispatches_to_cuda_module() {
    // The paper's §II-C3 behaviour: async_copy touching a GPU place is
    // automatically handed to the CUDA module.
    let (rt, gpu) = gpu_runtime(2, 1);
    let rt2 = rt.clone();
    rt.block_on(move || {
        let gpu_place = gpu.place_of(0);
        let home = rt2.here();
        let host = HostBuffer::new(32);
        host.write_bytes(0, &[9u8; 32]);
        let dbuf = gpu.alloc(0, 32);
        // H2D via the generic async_copy API.
        let f1 = rt2.async_copy(
            GpuModule::loc(&dbuf, 0),
            gpu_place,
            MemLoc::host(&host, 0),
            home,
            32,
        );
        f1.wait();
        dbuf.with(|bytes| assert_eq!(bytes, &[9u8; 32]));
        // Mutate on device, then D2H back.
        dbuf.with_mut(|bytes| bytes[0] = 1);
        let back = HostBuffer::new(32);
        let f2 = rt2.async_copy(
            MemLoc::host(&back, 0),
            home,
            GpuModule::loc(&dbuf, 0),
            gpu_place,
            32,
        );
        f2.wait();
        let mut out = [0u8; 32];
        back.read_bytes(0, &mut out);
        assert_eq!(out[0], 1);
        assert_eq!(out[1], 9);
    });
    rt.shutdown();
}

#[test]
fn gpu_to_gpu_async_copy() {
    let (rt, gpu) = gpu_runtime(2, 2);
    let rt2 = rt.clone();
    rt.block_on(move || {
        let a = gpu.alloc(0, 16);
        let b = gpu.alloc(1, 16);
        a.with_mut(|bytes| bytes.fill(5));
        let f = rt2.async_copy(
            GpuModule::loc(&b, 0),
            gpu.place_of(1),
            GpuModule::loc(&a, 0),
            gpu.place_of(0),
            16,
        );
        f.wait();
        b.with(|bytes| assert_eq!(bytes, &[5u8; 16]));
    });
    rt.shutdown();
}

#[test]
fn blocking_copy_stalls_but_async_overlaps() {
    // The GEO effect in miniature: total time of (copy + independent host
    // work) is smaller with the async API.
    let cfg = autogen::smp_with_gpus(1, 1);
    let gpu = GpuModule::with_pcie(PcieModel {
        bandwidth: 1e6, // 40ms for 40KB
        overhead: Duration::ZERO,
    });
    let rt = RuntimeBuilder::new(cfg)
        .module(Arc::clone(&gpu) as Arc<dyn SchedulerModule>)
        .build()
        .unwrap();
    let host_work = Duration::from_millis(30);

    let g = Arc::clone(&gpu);
    let blocking_time = rt.block_on(move || {
        let stream = g.create_stream(0);
        let buf = g.alloc(0, 40_000);
        let start = Instant::now();
        g.memcpy_h2d_blocking(&stream, &buf, 0, vec![0u8; 40_000]); // 40ms
        std::thread::sleep(host_work); // "host work" 30ms
        start.elapsed()
    });

    let g = Arc::clone(&gpu);
    let async_time = rt.block_on(move || {
        let stream = g.create_stream(0);
        let buf = g.alloc(0, 40_000);
        let start = Instant::now();
        let f = g.memcpy_h2d_future(&stream, &buf, 0, vec![0u8; 40_000]);
        std::thread::sleep(host_work); // overlapped host work
        f.wait();
        start.elapsed()
    });

    assert!(
        blocking_time >= Duration::from_millis(65),
        "blocking: {:?}",
        blocking_time
    );
    assert!(
        async_time < blocking_time,
        "async {:?} !< blocking {:?}",
        async_time,
        blocking_time
    );
    rt.shutdown();
}
