//! `msg_flood`: pipelined throughput through the *armed* reliable layer. The
//! fault plan perturbs nothing (`FaultPlan::seeded(seed).arm()`), so DATA
//! framing, ack piggyback/flush, staging/JUMBO and the retention map all run
//! without a single injected fault. One lap: (a) 8 bursts of 250 x 16 B
//! `mpi.isend` in both directions at once against posted `irecv`s, wait all;
//! (b) 32 x 64 KiB `shmem.put` each way, `quiet`, `barrier_all`.

use std::sync::Arc;
use std::time::Instant;

use hiper_mpi::MpiModule;
use hiper_netsim::FaultPlan;
use hiper_runtime::{when_all, Future, SchedulerModule};
use hiper_shmem::{ShmemModule, ShmemWorld};

use super::{
    drive, merge, rank_counters, reliable_counters, run_spmd, splitmix64, Control, RunCfg,
    RunResult, Verdict, RANKS,
};
use crate::spans;

const BURSTS: u64 = 8;
const BURST_LEN: u64 = 250;
const PUTS: usize = 32;
const PUT_BYTES: usize = 64 << 10;
const TAG_BURST: u64 = 7;

pub const MESSAGES_PER_LAP: f64 = (2 * BURSTS * BURST_LEN + 2 * PUTS as u64) as f64;
pub const SMALL_MESSAGES_PER_LAP: f64 = (2 * BURSTS * BURST_LEN) as f64;
pub const PUT_MB_PER_LAP: f64 = (2 * PUTS * PUT_BYTES) as f64 / 1e6;

fn word_sum(bytes: &[u8]) -> u64 {
    bytes
        .chunks_exact(8)
        .map(|w| u64::from_le_bytes(w.try_into().expect("8-byte chunk")))
        .fold(0, u64::wrapping_add)
}

struct Rank {
    peer: usize,
    mpi: Arc<MpiModule>,
    shmem: Arc<ShmemModule>,
    /// This rank's 64 KiB block; word 0 is overwritten with the lap number
    /// so last lap's bytes cannot validate.
    block: Vec<u8>,
    /// `word_sum` of the peer's block with word 0 zeroed.
    peer_block_sum: u64,
    /// Symmetric offset of the `PUTS` landing blocks.
    landing: usize,
    scratch: Vec<u8>,
    salt: u64,
}

impl Rank {
    fn lap(&mut self, lap: u64) -> Result<(), String> {
        let mut verdict = Verdict::new();

        // (a) both ranks post, send and wait at once.
        {
            let _s = spans::enter("mpi.flood", lap);
            for burst in 0..BURSTS {
                let recvs: Vec<_> = (0..BURST_LEN)
                    .map(|_| self.mpi.irecv::<u64>(Some(self.peer), Some(TAG_BURST)))
                    .collect();
                let base = (lap * BURSTS + burst) * BURST_LEN;
                let sends: Vec<Future<()>> = (0..BURST_LEN)
                    .map(|i| {
                        let seq = base + i;
                        self.mpi
                            .isend(self.peer, TAG_BURST, &[seq, seq ^ self.salt])
                    })
                    .collect();
                when_all(&sends).wait();
                // Per-sender FIFO: the i-th posted receive holds the i-th
                // message of this burst.
                for (i, r) in recvs.iter().enumerate() {
                    let (data, src, _) = r.get();
                    let seq = base + i as u64;
                    verdict.check(src == self.peer && data == [seq, seq ^ self.salt], || {
                        format!("burst {burst} message {i}: got {data:?} from {src}")
                    });
                }
            }
        }

        // (b) bulk puts, then remote completion.
        {
            let _s = spans::enter("shmem.put_flood", lap);
            self.block[..8].copy_from_slice(&lap.to_le_bytes());
            for j in 0..PUTS {
                self.shmem
                    .put(self.peer, self.landing + j * PUT_BYTES, self.block.clone());
            }
            self.shmem.quiet();
            self.shmem.barrier_all();
        }
        let want = self.peer_block_sum.wrapping_add(lap);
        for j in 0..PUTS {
            self.shmem
                .heap()
                .read_bytes(self.landing + j * PUT_BYTES, &mut self.scratch);
            let got = word_sum(&self.scratch);
            verdict.check(got == want, || {
                format!("put {j}: checksum {got:#x}, want {want:#x}")
            });
        }
        verdict.into_result()
    }
}

/// Rank `r`'s block: seeded bytes, word 0 zero.
fn block_of(seed: u64, r: usize) -> Vec<u8> {
    let mut state = seed ^ ((r as u64 + 1) << 56);
    let mut block: Vec<u8> = (0..PUT_BYTES / 8)
        .flat_map(|_| splitmix64(&mut state).to_le_bytes())
        .collect();
    block[..8].fill(0);
    block
}

pub fn run(cfg: &RunCfg) -> RunResult {
    let t0 = Instant::now();
    let cfg = *cfg;
    let ctl = Arc::new(Control::new(&cfg));
    let world = ShmemWorld::new(RANKS, (PUTS * PUT_BYTES + (1 << 16)).next_power_of_two());
    let ranks = run_spmd(
        Some(FaultPlan::seeded(cfg.seed).arm()),
        move |_rank, t| {
            let mpi = MpiModule::new(t.clone());
            let shmem = ShmemModule::new(world.clone(), t);
            let modules: Vec<Arc<dyn SchedulerModule>> =
                vec![Arc::clone(&mpi) as _, Arc::clone(&shmem) as _];
            (modules, (mpi, shmem))
        },
        move |env, (mpi, shmem)| {
            assert!(
                mpi.raw().reliable().enabled() && shmem.raw().reliable().enabled(),
                "the fault plan must arm both reliable endpoints"
            );
            let peer = 1 - env.rank;
            let landing = shmem.malloc(PUTS * PUT_BYTES).offset;
            shmem.barrier_all();
            let mut rank = Rank {
                peer,
                mpi: Arc::clone(&mpi),
                shmem: Arc::clone(&shmem),
                block: block_of(cfg.seed, env.rank),
                peer_block_sum: word_sum(&block_of(cfg.seed, peer)),
                landing,
                scratch: vec![0; PUT_BYTES],
                salt: cfg.seed.wrapping_mul(0x9e37_79b9_7f4a_7c15),
            };
            drive(
                &ctl,
                env.rank == 0,
                t0,
                // Keeps the peer's next puts off the landing blocks until
                // this rank has checked them.
                &|| shmem.barrier_all(),
                &|| {
                    let mut c = rank_counters(&env);
                    reliable_counters(&mut c, mpi.raw().reliable().stats());
                    reliable_counters(&mut c, shmem.raw().reliable().stats());
                    c
                },
                &mut |lap| rank.lap(lap),
            )
        },
    );
    merge(ranks, cfg.warmup, MESSAGES_PER_LAP)
}
