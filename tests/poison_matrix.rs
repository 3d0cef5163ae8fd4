//! Fail-fast poison through every operation that takes or derives from a
//! future. Each row poisons its input with a distinctive error and checks
//! that the output's error carries it, that the operation's side effect did
//! not happen (no body or kernel ran, no message was sent), and that no
//! thread panicked. Each row also has a healthy twin in which the value
//! flows through.

use std::panic;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, Once, PoisonError};

use hiper::gpu::GpuModule;
use hiper::mpi::MpiModule;
use hiper::netsim::{Cluster, NetConfig};
use hiper::platform::autogen;
use hiper::prelude::*;
use hiper::runtime::TaskError;
use hiper::upcxx::{GlobalPtr, UpcxxModule, UpcxxWorld};

const UPSTREAM: &str = "poison-matrix upstream failure";

static PANICS: AtomicUsize = AtomicUsize::new(0);

/// Runs one row alone (rows share the process-wide panic counter) and
/// asserts that no thread, worker or engine included, panicked during it.
fn row<R>(f: impl FnOnce() -> R) -> R {
    static HOOK: Once = Once::new();
    static SERIAL: Mutex<()> = Mutex::new(());
    HOOK.call_once(|| {
        let prev = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            PANICS.fetch_add(1, Ordering::SeqCst);
            prev(info)
        }));
    });
    let _serial = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    let before = PANICS.load(Ordering::SeqCst);
    let out = f();
    assert_eq!(PANICS.load(Ordering::SeqCst), before, "a thread panicked");
    out
}

fn upstream() -> TaskError {
    TaskError::new(UPSTREAM)
}

fn assert_carries<T: Send + 'static>(out: &Future<T>, upstream: &str) {
    let err = out.poison_error().expect("output poisoned");
    assert!(err.message.contains(upstream), "{}", err);
}

fn flag() -> (Arc<AtomicBool>, Arc<AtomicBool>) {
    let f = Arc::new(AtomicBool::new(false));
    (Arc::clone(&f), f)
}

#[test]
fn map_skips_its_body_and_carries_the_upstream_error() {
    row(|| {
        let (ran, ran2) = flag();
        let dep = Promise::<u32>::new();
        let out = dep.future().map(move |v| {
            ran2.store(true, Ordering::SeqCst);
            v + 1
        });
        dep.poison(upstream());
        assert_carries(&out, UPSTREAM);
        assert!(!ran.load(Ordering::SeqCst), "map body ran on poison");

        let dep = Promise::new();
        let out = dep.future().map(|v: &u32| v + 1);
        dep.put(41);
        assert_eq!(out.get(), 42);
    });
}

#[test]
fn and_then_skips_its_body_when_the_outer_future_is_poisoned() {
    row(|| {
        let (ran, ran2) = flag();
        let dep = Promise::<u32>::new();
        let out = dep.future().and_then(move |v| {
            ran2.store(true, Ordering::SeqCst);
            let inner = Promise::new();
            let f = inner.future();
            inner.put(v + 1);
            f
        });
        dep.poison(upstream());
        assert_carries(&out, UPSTREAM);
        assert!(!ran.load(Ordering::SeqCst), "and_then body ran on poison");

        let dep = Promise::new();
        let inner = Promise::new();
        let inner_fut = inner.future();
        let out = dep.future().and_then(move |_: &()| inner_fut);
        dep.put(());
        assert!(!out.is_complete(), "output waits for the inner future");
        inner.put(String::from("flowed"));
        assert_eq!(out.get(), "flowed");
    });
}

#[test]
fn and_then_carries_the_inner_futures_error() {
    row(|| {
        let dep = Promise::new();
        let inner = Promise::<u32>::new();
        let inner_fut = inner.future();
        let out = dep.future().and_then(move |_: &()| inner_fut);
        dep.put(());
        inner.poison(upstream());
        assert_carries(&out, UPSTREAM);

        let dep = Promise::new();
        let out = dep.future().and_then(|v: &u32| {
            let inner = Promise::new();
            let f = inner.future();
            inner.put(v * 2);
            f
        });
        dep.put(21);
        assert_eq!(out.get(), 42);
    });
}

#[test]
fn spawn_future_await_skips_its_body_and_carries_the_upstream_error() {
    row(|| {
        let rt = Runtime::new(autogen::smp(2));
        let (ran, ran2) = flag();
        let (scope, out) = rt.block_on(move || {
            let dep = Promise::<u32>::new();
            let dep_fut = dep.future();
            let mut out = None;
            let scope = finish(|| {
                out = Some(async_future_await(&dep_fut, move || {
                    ran2.store(true, Ordering::SeqCst);
                }));
                dep.poison(upstream());
            });
            (scope, out.unwrap())
        });
        assert_carries(&out, UPSTREAM);
        let err = scope.expect_err("the finish scope fails");
        assert!(err.message.contains("dependency poisoned: "), "{}", err);
        assert!(err.message.contains(UPSTREAM), "{}", err);
        assert!(!ran.load(Ordering::SeqCst), "predicated body ran on poison");

        let got = rt.block_on(|| {
            let dep = Promise::new();
            let out = async_future_await(&dep.future(), || 40u32);
            dep.put(2u32);
            out.get()
        });
        assert_eq!(got, 40);
        rt.shutdown();
    });
}

fn mpi_rank(cluster: &Cluster, rank: usize) -> (Runtime, Arc<MpiModule>) {
    let mpi = MpiModule::new(cluster.transport(rank));
    let rt = RuntimeBuilder::new(autogen::smp(1))
        .module(Arc::clone(&mpi) as Arc<dyn SchedulerModule>)
        .build()
        .expect("mpi builds");
    (rt, mpi)
}

#[test]
fn mpi_isend_await_sends_nothing_and_carries_the_upstream_error() {
    row(|| {
        let cluster = Cluster::start(2, NetConfig::instant());
        let (rt0, mpi0) = mpi_rank(&cluster, 0);
        let (rt1, mpi1) = mpi_rank(&cluster, 1);
        let sent = || cluster.transport(0).net_stats().messages;

        let before = sent();
        let m0 = Arc::clone(&mpi0);
        let (scope, out) = rt0.block_on(move || {
            let dep = Promise::<u64>::new();
            let dep_fut = dep.future();
            let mut out = None;
            let scope = finish(|| {
                let d = dep_fut.clone();
                out = Some(m0.isend_await(1, 9, move || vec![d.get()], &dep_fut));
                dep.poison(upstream());
            });
            (scope, out.unwrap())
        });
        assert_carries(&out, UPSTREAM);
        assert!(scope.is_err(), "the finish scope fails");
        assert_eq!(
            sent(),
            before,
            "a message went out on a poisoned dependency"
        );

        // Healthy twin: the dependency's value is what arrives.
        let m0 = Arc::clone(&mpi0);
        rt0.block_on(move || {
            let dep = Promise::<u64>::new();
            let dep_fut = dep.future();
            let d = dep_fut.clone();
            let out = m0.isend_await(1, 9, move || vec![d.get()], &dep_fut);
            dep.put(42);
            out.wait();
            assert!(out.is_ready());
        });
        assert!(sent() > before);
        let got = rt1.block_on(move || mpi1.irecv::<u64>(Some(0), Some(9)).get().0);
        assert_eq!(got, vec![42]);
        rt0.shutdown();
        rt1.shutdown();
        cluster.stop();
    });
}

#[test]
fn cuda_launch_await_runs_no_kernel_and_carries_the_upstream_error() {
    row(|| {
        let gpu = GpuModule::new();
        let rt = RuntimeBuilder::new(autogen::smp_with_gpus(1, 1))
            .module(Arc::clone(&gpu) as Arc<dyn SchedulerModule>)
            .build()
            .expect("cuda builds");
        let stream = gpu.create_stream(0);

        let (ran, ran2) = flag();
        let dep = Promise::new();
        let out = gpu.launch_await(&stream, &[dep.future()], move || {
            ran2.store(true, Ordering::SeqCst);
        });
        dep.poison(upstream());
        assert_carries(&out, UPSTREAM);
        gpu.device_synchronize(0);
        assert!(!ran.load(Ordering::SeqCst), "kernel ran on poison");

        let (ran, ran2) = flag();
        let dep = Promise::new();
        let out = gpu.launch_await(&stream, &[dep.future()], move || {
            ran2.store(true, Ordering::SeqCst);
        });
        dep.put(());
        out.wait();
        assert!(out.is_ready());
        assert!(ran.load(Ordering::SeqCst), "kernel did not run");
        rt.shutdown();
    });
}

fn upcxx_rank(cluster: &Cluster, world: &UpcxxWorld) -> (Runtime, Arc<UpcxxModule>) {
    let upcxx = UpcxxModule::new(world.clone(), cluster.transport(0));
    let rt = RuntimeBuilder::new(autogen::smp(1))
        .module(Arc::clone(&upcxx) as Arc<dyn SchedulerModule>)
        .build()
        .expect("upcxx builds");
    (rt, upcxx)
}

/// No public upcxx operation poisons an `rget` with an error of the
/// caller's choosing: an `rget` fails only when its reply can never come.
/// Here the peer has no upcxx endpoint, so the request is never answered,
/// and dropping the endpoint drops the pending reply.
#[test]
fn upcxx_rget_f64_carries_the_rget_error_without_panicking() {
    row(|| {
        let cluster = Cluster::start(2, NetConfig::instant());
        let world = UpcxxWorld::new(2, 1 << 12);
        let (rt, upcxx) = upcxx_rank(&cluster, &world);
        let remote = GlobalPtr {
            rank: 1,
            offset: 0,
            len: 16,
        };
        let raw = upcxx.rget(remote);
        let typed = upcxx.rget_f64(remote);
        rt.shutdown();
        cluster.stop();
        drop((rt, upcxx));
        let upstream = raw.poison_error().expect("unanswered rget poisoned");
        assert_carries(&typed, &upstream.message);

        let cluster = Cluster::start(2, NetConfig::instant());
        let (rt, upcxx) = upcxx_rank(&cluster, &world);
        let local = upcxx.alloc(16);
        upcxx.local_with_mut(local, |bytes| {
            bytes.copy_from_slice(&hiper::netsim::pod::to_bytes(&[1.5f64, -2.0]));
        });
        assert_eq!(upcxx.rget_f64(local).get(), vec![1.5, -2.0]);
        rt.shutdown();
        cluster.stop();
    });
}
