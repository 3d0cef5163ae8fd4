//! Integration tests for the core runtime: spawning, finish scopes, futures,
//! help-first blocking, parallel loops and lifecycle.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use hiper_platform::autogen;
use hiper_runtime::{api, Runtime};

fn rt(workers: usize) -> Runtime {
    Runtime::new(autogen::smp(workers))
}

#[test]
fn block_on_returns_value() {
    let rt = rt(2);
    assert_eq!(rt.block_on(|| 7 * 6), 42);
    rt.shutdown();
}

#[test]
fn finish_waits_for_all_spawns() {
    let rt = rt(3);
    let count = Arc::new(AtomicUsize::new(0));
    let c = Arc::clone(&count);
    rt.block_on(move || {
        api::finish(|| {
            for _ in 0..100 {
                let c = Arc::clone(&c);
                api::async_(move || {
                    c.fetch_add(1, Ordering::Relaxed);
                });
            }
        })
        .expect("no task panicked");
        // All 100 must have completed before finish returned.
        assert_eq!(c.load(Ordering::SeqCst), 100);
    });
    rt.shutdown();
}

#[test]
fn finish_waits_for_transitive_spawns() {
    let rt = rt(2);
    let count = Arc::new(AtomicUsize::new(0));
    let c = Arc::clone(&count);
    rt.block_on(move || {
        api::finish(|| {
            let c1 = Arc::clone(&c);
            api::async_(move || {
                // Children spawned from inside a task still register with
                // the enclosing finish scope.
                for _ in 0..10 {
                    let c2 = Arc::clone(&c1);
                    api::async_(move || {
                        let c3 = Arc::clone(&c2);
                        api::async_(move || {
                            c3.fetch_add(1, Ordering::Relaxed);
                        });
                    });
                }
            });
        })
        .expect("no task panicked");
        assert_eq!(c.load(Ordering::SeqCst), 10);
    });
    rt.shutdown();
}

#[test]
fn nested_finish_scopes() {
    let rt = rt(2);
    rt.block_on(|| {
        let order = Arc::new(parking_lot::Mutex::new(Vec::new()));
        let o = Arc::clone(&order);
        api::finish(|| {
            let o1 = Arc::clone(&o);
            api::async_(move || {
                o1.lock().push("outer");
            });
            let o2 = Arc::clone(&o);
            api::finish(move || {
                let o3 = Arc::clone(&o2);
                api::async_(move || {
                    o3.lock().push("inner");
                });
            })
            .expect("no task panicked");
            // Inner finish completed here; "inner" must be recorded.
            assert!(o.lock().contains(&"inner"));
        })
        .expect("no task panicked");
        assert_eq!(order.lock().len(), 2);
    });
    rt.shutdown();
}

#[test]
fn single_worker_does_not_deadlock() {
    // On one worker, finish inside a task must help-execute the children
    // rather than blocking the only thread.
    let rt = rt(1);
    let result = rt.block_on(|| {
        let mut total = 0u64;
        for _ in 0..5 {
            let fut = api::async_future(|| 1u64);
            total += fut.get();
        }
        api::finish(|| {
            for _ in 0..50 {
                api::async_(|| {});
            }
        })
        .expect("no task panicked");
        total
    });
    assert_eq!(result, 5);
    rt.shutdown();
}

#[test]
fn async_future_and_get() {
    let rt = rt(2);
    let v = rt.block_on(|| {
        let futs: Vec<_> = (0..20).map(|i| api::async_future(move || i * i)).collect();
        futs.iter().map(|f| f.get()).sum::<i64>()
    });
    assert_eq!(v, (0..20).map(|i| i * i).sum());
    rt.shutdown();
}

#[test]
fn async_await_runs_after_dependency() {
    let rt = rt(2);
    rt.block_on(|| {
        let flag = Arc::new(AtomicUsize::new(0));
        api::finish(|| {
            let p = hiper_runtime::Promise::new();
            let f = p.future();
            let flag1 = Arc::clone(&flag);
            api::async_await(&f, move || {
                // The dependency must have stored 1 before we run.
                assert_eq!(flag1.load(Ordering::SeqCst), 1);
                flag1.store(2, Ordering::SeqCst);
            });
            let flag2 = Arc::clone(&flag);
            api::async_(move || {
                std::thread::sleep(Duration::from_millis(5));
                flag2.store(1, Ordering::SeqCst);
                p.put(());
            });
        })
        .expect("no task panicked");
        assert_eq!(flag.load(Ordering::SeqCst), 2);
    });
    rt.shutdown();
}

#[test]
fn finish_waits_for_not_yet_eligible_await_tasks() {
    // A task registered with async_await inside a finish must be awaited by
    // that finish even though it only becomes eligible when the promise is
    // satisfied (possibly much later, from another thread).
    let rt = rt(2);
    let ran = Arc::new(AtomicUsize::new(0));
    let r = Arc::clone(&ran);
    rt.block_on(move || {
        let p = hiper_runtime::Promise::new();
        let f = p.future();
        // Satisfy from an external OS thread after a delay.
        let satisfier = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            p.put(());
        });
        api::finish(|| {
            let r = Arc::clone(&r);
            api::async_await(&f, move || {
                r.store(1, Ordering::SeqCst);
            });
        })
        .expect("no task panicked");
        assert_eq!(r.load(Ordering::SeqCst), 1);
        satisfier.join().unwrap();
    });
    rt.shutdown();
}

#[test]
fn async_future_await_chains() {
    let rt = rt(2);
    let result = rt.block_on(|| {
        let a = api::async_future(|| 10);
        let b = api::async_future_await(&a, || 20);
        let c = api::async_future_await(&b, || 30);
        c.wait();
        a.get() + b.get() + c.get()
    });
    assert_eq!(result, 60);
    rt.shutdown();
}

#[test]
fn forasync_runs_every_iteration_once() {
    let rt = rt(3);
    let hits = Arc::new((0..1000).map(|_| AtomicUsize::new(0)).collect::<Vec<_>>());
    let h = Arc::clone(&hits);
    rt.block_on(move || {
        api::forasync_1d(1000, 16, move |i| {
            h[i].fetch_add(1, Ordering::Relaxed);
        });
    });
    for (i, hit) in hits.iter().enumerate() {
        assert_eq!(
            hit.load(Ordering::SeqCst),
            1,
            "iteration {} ran wrong count",
            i
        );
    }
    rt.shutdown();
}

#[test]
fn forasync_empty_and_tiny() {
    let rt = rt(2);
    rt.block_on(|| {
        api::forasync_1d(0, 8, |_| panic!("no iterations expected"));
        let count = Arc::new(AtomicUsize::new(0));
        let c = Arc::clone(&count);
        api::forasync_1d(1, 100, move |_| {
            c.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::SeqCst), 1);
    });
    rt.shutdown();
}

#[test]
fn forasync_2d_and_3d_cover_space() {
    let rt = rt(2);
    let count = Arc::new(AtomicUsize::new(0));
    let c2 = Arc::clone(&count);
    let c3 = Arc::clone(&count);
    rt.block_on(move || {
        api::finish(|| {}).expect("no task panicked");
        hiper_runtime::Runtime::current()
            .unwrap()
            .forasync_2d((8, 9), 2, move |_i, _j| {
                c2.fetch_add(1, Ordering::Relaxed);
            });
    });
    assert_eq!(count.load(Ordering::SeqCst), 72);
    count.store(0, Ordering::SeqCst);
    rt.block_on(move || {
        hiper_runtime::Runtime::current()
            .unwrap()
            .forasync_3d((3, 4, 5), 1, move |_, _, _| {
                c3.fetch_add(1, Ordering::Relaxed);
            });
    });
    assert_eq!(count.load(Ordering::SeqCst), 60);
    rt.shutdown();
}

#[test]
fn forasync_future_overlaps_with_other_work() {
    let rt = rt(2);
    rt.block_on(|| {
        let done = Arc::new(AtomicUsize::new(0));
        let d = Arc::clone(&done);
        let fut = api::forasync_future_1d(100, 4, move |_| {
            d.fetch_add(1, Ordering::Relaxed);
        });
        // Do something else, then synchronize on the loop.
        let other = api::async_future(|| 5);
        assert_eq!(other.get(), 5);
        fut.wait();
        assert_eq!(done.load(Ordering::SeqCst), 100);
    });
    rt.shutdown();
}

#[test]
fn spawn_at_places_tasks_at_target_place() {
    let cfg = autogen::smp(2);
    let interconnect = autogen::interconnect_of(&cfg);
    let rt = Runtime::new(cfg);
    let rt2 = rt.clone();
    rt.block_on(move || {
        let seen = Arc::new(AtomicUsize::new(0));
        let s = Arc::clone(&seen);
        rt2.finish(|| {
            rt2.spawn_at(interconnect, move || {
                s.store(1, Ordering::SeqCst);
            });
        })
        .expect("no task panicked");
        assert_eq!(seen.load(Ordering::SeqCst), 1);
    });
    rt.shutdown();
}

#[test]
fn external_thread_spawn_and_finish() {
    // Calling runtime APIs from a plain OS thread (no TLS context).
    let rt = rt(2);
    let count = Arc::new(AtomicUsize::new(0));
    let c = Arc::clone(&count);
    rt.finish(|| {
        for _ in 0..10 {
            let c = Arc::clone(&c);
            rt.spawn(move || {
                c.fetch_add(1, Ordering::Relaxed);
            });
        }
    })
    .expect("no task panicked");
    assert_eq!(count.load(Ordering::SeqCst), 10);
    rt.shutdown();
}

#[test]
fn multiple_runtimes_coexist() {
    let rt_a = rt(1);
    let rt_b = rt(1);
    let a = rt_a.block_on(|| 1);
    let b = rt_b.block_on(|| 2);
    assert_eq!(a + b, 3);
    // Cross-runtime future composition: a task on A waits on a future
    // satisfied by a task on B.
    let p = hiper_runtime::Promise::new();
    let f = p.future();
    rt_b.spawn(move || p.put(123));
    let got = rt_a.block_on(move || f.get());
    assert_eq!(got, 123);
    rt_a.shutdown();
    rt_b.shutdown();
}

#[test]
fn stats_count_executed_tasks() {
    let rt = rt(2);
    rt.block_on(|| {
        api::finish(|| {
            for _ in 0..50 {
                api::async_(|| {});
            }
        })
        .expect("no task panicked");
    });
    let stats = rt.sched_stats();
    assert!(stats.tasks_executed >= 50, "stats: {}", stats);
    rt.shutdown();
}

#[test]
fn shutdown_is_idempotent() {
    let rt = rt(2);
    rt.block_on(|| ());
    rt.shutdown();
    rt.shutdown();
}

#[test]
fn task_panic_does_not_kill_worker() {
    let rt = rt(1);
    rt.block_on(|| {
        let r = api::finish(|| {
            api::async_(|| panic!("intentional test panic"));
        });
        let err = r.expect_err("finish must surface the task panic");
        assert!(
            err.to_string().contains("intentional test panic"),
            "{}",
            err
        );
        // The single worker survived and still executes tasks.
        let f = api::async_future(|| 11);
        assert_eq!(f.get(), 11);
    });
    rt.shutdown();
}

#[test]
fn when_all_composes_futures() {
    let rt = rt(2);
    rt.block_on(|| {
        let fs: Vec<_> = (0..5).map(|_| api::async_future(|| ())).collect();
        let all = hiper_runtime::when_all(&fs);
        all.wait();
        assert!(fs.iter().all(|f| f.is_ready()));
    });
    rt.shutdown();
}

#[test]
fn async_copy_host_to_host() {
    let cfg = autogen::smp(2);
    let rt = Runtime::new(cfg);
    let rt2 = rt.clone();
    rt.block_on(move || {
        let src = hiper_runtime::HostBuffer::new(64);
        let dst = hiper_runtime::HostBuffer::new(64);
        src.write_bytes(0, &[7u8; 64]);
        let home = rt2.here();
        let fut = rt2.async_copy(
            hiper_runtime::MemLoc::host(&dst, 0),
            home,
            hiper_runtime::MemLoc::host(&src, 0),
            home,
            64,
        );
        fut.wait();
        let mut out = [0u8; 64];
        dst.read_bytes(0, &mut out);
        assert_eq!(out, [7u8; 64]);
    });
    rt.shutdown();
}

#[test]
fn hostbuffer_f64_views() {
    let buf = hiper_runtime::HostBuffer::new(10 * 8);
    let vals: Vec<f64> = (0..10).map(|i| i as f64 * 1.5).collect();
    buf.write_f64s(0, &vals);
    let mut out = vec![0.0; 10];
    buf.read_f64s(0, &mut out);
    assert_eq!(out, vals);
}

#[test]
fn task_panics_are_counted_in_sched_stats() {
    let rt = rt(2);
    rt.block_on(|| {
        let r = api::finish(|| {
            api::async_(|| panic!("counted panic a"));
            api::async_(|| panic!("counted panic b"));
        });
        assert!(r.is_err());
    });
    let snap = rt.sched_stats();
    assert_eq!(snap.task_panics, 2, "{}", snap);
    rt.shutdown();
}

#[test]
fn dependents_of_a_poisoned_future_fail_fast() {
    // The dependency's body panics, poisoning its future via the dropped
    // promise. The dependent body must never run; the enclosing finish
    // surfaces the propagated failure instead.
    let rt = rt(2);
    let ran = Arc::new(AtomicUsize::new(0));
    let r = Arc::clone(&ran);
    rt.block_on(move || {
        let out = api::finish(move || {
            let dep = api::async_future(|| -> u64 { panic!("poisoned dependency") });
            api::async_await(&dep, move || {
                r.fetch_add(1, Ordering::SeqCst);
            });
        });
        let err = out.expect_err("finish must surface the poisoned dependency");
        assert!(err.to_string().contains("dependency poisoned"), "{}", err);
    });
    assert_eq!(ran.load(Ordering::SeqCst), 0, "dependent body must not run");
    rt.shutdown();
}

#[test]
fn finish_drains_fully_before_surfacing_the_error() {
    // A panicking sibling must not cut the scope short: the slow sibling
    // still completes before finish returns (with the error).
    let rt = rt(2);
    let done = Arc::new(AtomicUsize::new(0));
    let d = Arc::clone(&done);
    let d2 = Arc::clone(&done);
    rt.block_on(move || {
        let out = api::finish(move || {
            api::async_(|| panic!("fast failing sibling"));
            api::async_(move || {
                std::thread::sleep(Duration::from_millis(50));
                d.fetch_add(1, Ordering::SeqCst);
            });
        });
        assert!(out.is_err());
        assert_eq!(d2.load(Ordering::SeqCst), 1, "scope must drain fully");
    });
    rt.shutdown();
}
