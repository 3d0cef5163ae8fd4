//! Tests for the pluggable-module machinery: lifecycle hooks, platform
//! assertions at initialization, copy-handler registration, per-module
//! statistics, the shared polling task and the `ModuleCtx` every module
//! binds through.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use hiper_platform::{autogen, PlaceKind};
use hiper_runtime::{
    CopyHandler, ModuleCtx, ModuleError, Poller, Promise, Runtime, RuntimeBuilder, SchedulerModule,
};

#[derive(Default)]
struct ProbeModule {
    initialized: AtomicBool,
    finalized: AtomicBool,
    require_gpu: bool,
}

impl SchedulerModule for ProbeModule {
    fn name(&self) -> &'static str {
        "probe"
    }

    fn initialize(&self, rt: &Runtime) -> Result<(), ModuleError> {
        if self.require_gpu && rt.place_of_kind(&PlaceKind::GpuMemory).is_none() {
            return Err(ModuleError::new("probe", "platform model has no GPU place"));
        }
        self.initialized.store(true, Ordering::SeqCst);
        Ok(())
    }

    fn finalize(&self, _rt: &Runtime) {
        self.finalized.store(true, Ordering::SeqCst);
    }

    fn register_copy_handlers(&self, rt: &Runtime) {
        let handler: Arc<CopyHandler> = Arc::new(|_rt, _req, done| done.put(()));
        rt.copy_registry().register(
            PlaceKind::Custom("probe".into()),
            PlaceKind::Custom("probe".into()),
            handler,
        );
    }
}

#[test]
fn module_lifecycle_init_then_finalize() {
    let module = Arc::new(ProbeModule::default());
    let rt = RuntimeBuilder::new(autogen::smp(2))
        .module(Arc::clone(&module) as Arc<dyn SchedulerModule>)
        .build()
        .unwrap();
    assert!(module.initialized.load(Ordering::SeqCst));
    assert!(!module.finalized.load(Ordering::SeqCst));
    rt.shutdown();
    assert!(module.finalized.load(Ordering::SeqCst));
}

#[test]
fn module_platform_assertion_fails_build() {
    let module = Arc::new(ProbeModule {
        require_gpu: true,
        ..Default::default()
    });
    let result = RuntimeBuilder::new(autogen::smp(2))
        .module(module as Arc<dyn SchedulerModule>)
        .build();
    match result {
        Err(e) => assert!(e.to_string().contains("no GPU place"), "{}", e),
        Ok(rt) => {
            rt.shutdown();
            panic!("build should fail when the platform assertion fails");
        }
    }
}

#[test]
fn failed_build_finalizes_the_modules_already_initialized() {
    let first = Arc::new(ProbeModule::default());
    let failing = Arc::new(ProbeModule {
        require_gpu: true,
        ..Default::default()
    });
    let result = RuntimeBuilder::new(autogen::smp(2))
        .module(Arc::clone(&first) as Arc<dyn SchedulerModule>)
        .module(Arc::clone(&failing) as Arc<dyn SchedulerModule>)
        .build();
    assert!(result.is_err());
    assert!(first.initialized.load(Ordering::SeqCst));
    assert!(
        first.finalized.load(Ordering::SeqCst),
        "first module left bound"
    );
    assert!(!failing.initialized.load(Ordering::SeqCst));
}

#[test]
fn module_stats_attribute_time() {
    let rt = Runtime::new(autogen::smp(1));
    {
        let _t = rt.module_stats().time("fake-module");
        std::thread::sleep(Duration::from_millis(1));
    }
    rt.module_stats()
        .record("fake-module", Duration::from_micros(3));
    let snap = rt.module_stats().snapshot();
    let entry = snap.iter().find(|(n, _, _)| n == "fake-module").unwrap();
    assert_eq!(entry.1, 2);
    rt.shutdown();
}

#[test]
fn poller_completes_pending_operations() {
    let rt = Runtime::new(autogen::smp(2));
    let place = rt.here();
    let poller = Poller::new("test-poller", place);
    // An "operation" that completes on its third poll.
    let polls = Arc::new(AtomicUsize::new(0));
    let p = Promise::new();
    let fut = p.future();
    let polls2 = Arc::clone(&polls);
    let mut promise = Some(p);
    poller.submit(
        &rt,
        Box::new(move || {
            let n = polls2.fetch_add(1, Ordering::SeqCst) + 1;
            if n >= 3 {
                if let Some(p) = promise.take() {
                    p.put(());
                }
                true
            } else {
                false
            }
        }),
    );
    fut.wait();
    assert!(polls.load(Ordering::SeqCst) >= 3);
    assert_eq!(poller.pending_len(), 0);
    rt.shutdown();
}

#[test]
fn poller_handles_many_concurrent_operations() {
    let rt = Runtime::new(autogen::smp(2));
    let place = rt.here();
    let poller = Poller::new("test-poller", place);
    let mut futures = Vec::new();
    for i in 0..50 {
        let p = Promise::new();
        futures.push(p.future());
        let mut promise = Some(p);
        // Complete after `i % 5` sweeps.
        let mut remaining = i % 5;
        poller.submit(
            &rt,
            Box::new(move || {
                if remaining == 0 {
                    if let Some(p) = promise.take() {
                        p.put(());
                    }
                    true
                } else {
                    remaining -= 1;
                    false
                }
            }),
        );
    }
    for f in &futures {
        f.wait();
    }
    assert_eq!(poller.pending_len(), 0);
    rt.shutdown();
}

#[test]
fn poller_restarts_after_going_idle() {
    let rt = Runtime::new(autogen::smp(1));
    let place = rt.here();
    let poller = Poller::new("test-poller", place);
    for round in 0..3 {
        let p = Promise::new();
        let fut = p.future();
        let mut promise = Some(p);
        poller.submit(
            &rt,
            Box::new(move || {
                if let Some(p) = promise.take() {
                    p.put(());
                }
                true
            }),
        );
        fut.wait();
        assert_eq!(poller.pending_len(), 0, "round {}", round);
        // Let the sweep task drain fully before resubmitting.
        std::thread::sleep(Duration::from_millis(2));
    }
    rt.shutdown();
}

#[test]
fn custom_copy_handler_is_used() {
    struct NullModule;
    impl SchedulerModule for NullModule {
        fn name(&self) -> &'static str {
            "null"
        }
        fn initialize(&self, _rt: &Runtime) -> Result<(), ModuleError> {
            Ok(())
        }
        fn register_copy_handlers(&self, rt: &Runtime) {
            // Claim sysmem->interconnect transfers: complete instantly and
            // set a marker byte instead of copying.
            let handler: Arc<CopyHandler> = Arc::new(|_rt, req, done| {
                if let hiper_runtime::MemLoc::Host { buf, offset } = &req.dst {
                    buf.write_bytes(*offset, &[0xAB]);
                }
                done.put(());
            });
            rt.copy_registry()
                .register(PlaceKind::SystemMemory, PlaceKind::Interconnect, handler);
        }
    }

    let cfg = autogen::smp(1);
    let net = autogen::interconnect_of(&cfg);
    let rt = RuntimeBuilder::new(cfg)
        .module(Arc::new(NullModule))
        .build()
        .unwrap();
    let src = hiper_runtime::HostBuffer::new(4);
    let dst = hiper_runtime::HostBuffer::new(4);
    let home = rt.here();
    let fut = rt.async_copy(
        hiper_runtime::MemLoc::host(&dst, 0),
        net,
        hiper_runtime::MemLoc::host(&src, 0),
        home,
        1,
    );
    fut.wait();
    let mut out = [0u8; 1];
    dst.read_bytes(0, &mut out);
    assert_eq!(out[0], 0xAB);
    rt.shutdown();
}

#[test]
#[should_panic(expected = "no copy handler")]
fn missing_copy_handler_panics() {
    let cfg = autogen::smp_with_gpus(1, 1);
    let gpu = cfg.graph.by_name("gpu0").unwrap();
    let rt = Runtime::new(cfg);
    let buf = hiper_runtime::HostBuffer::new(4);
    let home = rt.here();
    // No CUDA module installed: host->gpu has no handler.
    let _ = rt.async_copy(
        hiper_runtime::MemLoc::host(&buf, 0),
        gpu,
        hiper_runtime::MemLoc::host(&buf, 0),
        home,
        4,
    );
}

fn calls_of(rt: &Runtime, module: &str) -> u64 {
    let snap = rt.module_stats().snapshot();
    snap.iter()
        .find(|(n, _, _)| n == module)
        .map_or(0, |(_, calls, _)| *calls)
}

#[test]
fn ctx_taskify_returns_its_value_at_the_bound_place() {
    let rt = Runtime::new(autogen::smp(2));
    let place = rt.here();
    let ctx: ModuleCtx = ModuleCtx::new("ctx-probe", "ctx-probe-poll");
    ctx.bind(&rt, place, ());
    // Called from a thread that is not a worker: the closure can only run
    // as a task on one of the runtime's workers.
    let (value, ran_at, on_worker) = ctx.taskify("probe", 8, || {
        let cur = Runtime::current().expect("taskified closure runs on a worker");
        (
            42,
            cur.here(),
            std::thread::current().name().map(str::to_owned),
        )
    });
    assert_eq!(value, 42);
    assert_eq!(ran_at, place);
    assert!(on_worker.unwrap_or_default().starts_with("hiper-worker"));
    ctx.unbind();
    rt.shutdown();
}

#[test]
fn ctx_records_each_op_once_under_the_module_name() {
    let rt = Runtime::new(autogen::smp(2));
    let ctx: ModuleCtx = ModuleCtx::new("ctx-stats", "ctx-stats-poll");
    ctx.bind(&rt, rt.here(), ());
    assert_eq!(ctx.time_op("op", 3, |b| b.place), rt.here());
    assert_eq!(calls_of(&rt, "ctx-stats"), 1);
    ctx.taskify("task", 0, || ());
    assert_eq!(calls_of(&rt, "ctx-stats"), 2);
    // The poller's sweeps are timed under the poller's name, not as more
    // ops of the module.
    let ready = Arc::new(AtomicBool::new(false));
    let r2 = Arc::clone(&ready);
    let fut = ctx.time_op("poll", 0, |b| {
        b.poll_future(move || r2.load(Ordering::SeqCst).then_some(7u32))
    });
    ready.store(true, Ordering::SeqCst);
    assert_eq!(fut.get(), 7);
    assert_eq!(calls_of(&rt, "ctx-stats"), 3);
    ctx.unbind();
    rt.shutdown();
}

#[test]
fn ctx_use_before_binding_panics_with_the_module_name() {
    let ctx: ModuleCtx = ModuleCtx::new("ctx-unbound", "ctx-unbound-poll");
    let err = std::panic::catch_unwind(|| ctx.with(|_| ())).unwrap_err();
    let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
    assert_eq!(msg, "ctx-unbound module used before runtime initialization");
}

#[test]
fn ctx_unbind_releases_the_runtime_and_returns_the_state() {
    let rt = Runtime::new(autogen::smp(1));
    let ctx: ModuleCtx<Vec<u8>> = ModuleCtx::new("ctx-unbind", "ctx-unbind-poll");
    assert!(ctx.unbind().is_none(), "nothing bound yet");
    ctx.bind(&rt, rt.here(), vec![1, 2, 3]);
    assert_eq!(ctx.try_with(|b| b.state.len()), Some(3));
    assert_eq!(ctx.unbind(), Some(vec![1, 2, 3]));
    assert!(
        ctx.try_with(|_| ()).is_none(),
        "ctx still holds the runtime"
    );
    rt.shutdown();
}

#[test]
fn ctx_find_place_names_the_module_and_the_missing_kinds() {
    let rt = Runtime::new(autogen::smp(1));
    let ctx: ModuleCtx = ModuleCtx::new("ctx-places", "ctx-places-poll");
    let net = ctx.find_place(&rt, &[PlaceKind::Interconnect]).unwrap();
    assert_eq!(Some(net), rt.place_of_kind(&PlaceKind::Interconnect));
    let first = ctx
        .find_place(&rt, &[PlaceKind::Nvm, PlaceKind::Interconnect])
        .unwrap();
    assert_eq!(first, net, "falls through to the next kind");
    match ctx.find_place(&rt, &[PlaceKind::LocalDisk, PlaceKind::Nvm]) {
        Err(e @ ModuleError::Init { .. }) => {
            assert_eq!(e.module(), "ctx-places");
            assert!(e.to_string().contains("no LocalDisk or Nvm place"), "{}", e);
        }
        other => panic!("expected an Init error, got {:?}", other),
    }
    rt.shutdown();
}
