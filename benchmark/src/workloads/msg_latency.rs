//! `msg_latency`: a blocking chain of 8-byte round trips, rank 0 <-> 1, on an
//! idle default link with no fault plan (the pass-through path every figure
//! harness runs). Four phases of 25 dependent round trips: (a) `mpi.send` /
//! `recv`; (b) `mpi.isend` + `irecv` futures chained with `async_await`;
//! (c) `shmem.fadd`; (d) `upcxx.rpc`. All three modules share one runtime
//! per rank.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use hiper_mpi::MpiModule;
use hiper_runtime::{api, Promise, SchedulerModule};
use hiper_shmem::{ShmemModule, ShmemWorld};
use hiper_upcxx::{UpcxxModule, UpcxxWorld};

use super::{drive, merge, rank_counters, run_spmd, Control, RunCfg, RunResult, Verdict, RANKS};
use crate::spans;

const ROUNDS: u64 = 25;
const TAG_PING: u64 = 1;
const TAG_PONG: u64 = 2;
const TAG_FUT_PING: u64 = 3;
const TAG_FUT_PONG: u64 = 4;
const TAG_ONE_SIDED_DONE: u64 = 5;

/// The 8 payload bytes of round `i` in `phase` of `lap`: a sequence number
/// mixed with the seed, so a stale or misrouted message cannot validate.
fn payload(salt: u64, lap: u64, phase: u64, i: u64) -> u64 {
    salt ^ (lap * 1000 + phase * 100 + i)
}

/// Phase (b): each round trip is posted from the continuation of the one
/// before it, so the chain never blocks a worker.
struct FutureChain {
    mpi: Arc<MpiModule>,
    peer: usize,
    lap: u64,
    salt: u64,
    error: Mutex<Option<String>>,
    done: Mutex<Option<Promise<()>>>,
}

impl FutureChain {
    fn finish(&self) {
        let done = self.done.lock().expect("chain lock").take();
        done.expect("chain finished twice").put(());
    }

    fn ping(self: Arc<Self>, i: u64) {
        if i == ROUNDS {
            return self.finish();
        }
        let want = payload(self.salt, self.lap, 1, i);
        let reply = self.mpi.irecv::<u64>(Some(self.peer), Some(TAG_FUT_PONG));
        let open = spans::begin("mpi.future_rt", self.lap);
        let _sent = self.mpi.isend(self.peer, TAG_FUT_PING, &[want]);
        let reply2 = reply.clone();
        api::async_await(&reply, move || {
            spans::end(open);
            let (data, _, _) = reply2.get();
            if data != [want] {
                let mut e = self.error.lock().expect("chain lock");
                e.get_or_insert(format!("future round {i}: echoed {data:?}, want {want}"));
            }
            self.ping(i + 1);
        });
    }

    fn pong(self: Arc<Self>, i: u64) {
        if i == ROUNDS {
            return self.finish();
        }
        let request = self.mpi.irecv::<u64>(Some(self.peer), Some(TAG_FUT_PING));
        let request2 = request.clone();
        api::async_await(&request, move || {
            let (data, _, _) = request2.get();
            let _sent = self.mpi.isend(self.peer, TAG_FUT_PONG, &data);
            self.pong(i + 1);
        });
    }
}

struct Rank {
    rank: usize,
    peer: usize,
    salt: u64,
    mpi: Arc<MpiModule>,
    shmem: Arc<ShmemModule>,
    upcxx: Arc<UpcxxModule>,
    /// Symmetric offset of the `fadd` target.
    counter: usize,
    /// What the next `fadd` must return.
    next_fadd: u64,
}

impl Rank {
    fn lap(&mut self, lap: u64) -> Result<(), String> {
        let (mpi, peer, salt) = (&self.mpi, self.peer, self.salt);
        let mut verdict = Verdict::new();
        // (a) blocking send/recv.
        for i in 0..ROUNDS {
            if self.rank == 0 {
                let want = payload(salt, lap, 0, i);
                let _s = spans::enter("mpi.pingpong", lap);
                mpi.send(peer, TAG_PING, &[want]);
                let (data, _, _) = mpi.recv::<u64>(Some(peer), Some(TAG_PONG));
                verdict.check(data == [want], || {
                    format!("blocking round {i}: echoed {data:?}, want {want}")
                });
            } else {
                let (data, _, _) = mpi.recv::<u64>(Some(peer), Some(TAG_PING));
                mpi.send(peer, TAG_PONG, &data);
            }
        }

        // (b) future chain.
        let done = Promise::new();
        let finished = done.future();
        let chain = Arc::new(FutureChain {
            mpi: Arc::clone(mpi),
            peer,
            lap,
            salt,
            error: Mutex::new(None),
            done: Mutex::new(Some(done)),
        });
        if self.rank == 0 {
            Arc::clone(&chain).ping(0);
        } else {
            Arc::clone(&chain).pong(0);
        }
        finished.wait();
        if let Some(e) = chain.error.lock().expect("chain lock").take() {
            verdict.check(false, || e.clone());
        }

        // (c) + (d) are one-sided: rank 1 waits help-first on a message, so
        // its only worker stays free to run the rpc bodies.
        if self.rank != 0 {
            let (data, _, _) = mpi.irecv::<u64>(Some(peer), Some(TAG_ONE_SIDED_DONE)).get();
            verdict.check(data == [lap], || {
                format!("phase marker {data:?}, want {lap}")
            });
            return verdict.into_result();
        }
        for i in 0..ROUNDS {
            let old = {
                let _s = spans::enter("shmem.fadd", lap);
                self.shmem.fadd(peer, self.counter, 1)
            };
            let want = self.next_fadd;
            verdict.check(old == want, || {
                format!("fadd {i} returned {old}, want {want}")
            });
            self.next_fadd = old + 1;
        }
        for i in 0..ROUNDS {
            let x = payload(salt, lap, 3, i);
            let y = {
                let _s = spans::enter("upcxx.rpc", lap);
                self.upcxx.rpc(peer, move || x.wrapping_add(1)).get()
            };
            verdict.check(y == x.wrapping_add(1), || format!("rpc({x}) returned {y}"));
        }
        let _sent = mpi.isend(peer, TAG_ONE_SIDED_DONE, &[lap]);
        verdict.into_result()
    }
}

pub const ROUND_TRIPS_PER_LAP: f64 = (4 * ROUNDS) as f64;

pub fn run(cfg: &RunCfg) -> RunResult {
    let t0 = Instant::now();
    let cfg = *cfg;
    let ctl = Arc::new(Control::new(&cfg));
    let sworld = ShmemWorld::new(RANKS, 1 << 16);
    let uworld = UpcxxWorld::new(RANKS, 1 << 12);
    let ranks = run_spmd(
        None,
        move |_rank, t| {
            let mpi = MpiModule::new(t.clone());
            let shmem = ShmemModule::new(sworld.clone(), t.clone());
            let upcxx = UpcxxModule::new(uworld.clone(), t);
            let modules: Vec<Arc<dyn SchedulerModule>> = vec![
                Arc::clone(&mpi) as _,
                Arc::clone(&shmem) as _,
                Arc::clone(&upcxx) as _,
            ];
            (modules, (mpi, shmem, upcxx))
        },
        move |env, (mpi, shmem, upcxx)| {
            let counter = shmem.malloc64(1).offset;
            shmem.heap().store_u64(counter, 0);
            mpi.barrier();
            let mut rank = Rank {
                rank: env.rank,
                peer: 1 - env.rank,
                salt: cfg.seed.wrapping_mul(0x9e37_79b9_7f4a_7c15),
                mpi: Arc::clone(&mpi),
                shmem,
                upcxx,
                counter,
                next_fadd: 0,
            };
            drive(
                &ctl,
                env.rank == 0,
                t0,
                &|| mpi.barrier(),
                &|| rank_counters(&env),
                &mut |lap| rank.lap(lap),
            )
        },
    );
    merge(ranks, cfg.warmup, ROUND_TRIPS_PER_LAP)
}
