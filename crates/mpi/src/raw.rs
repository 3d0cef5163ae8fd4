//! The "underlying MPI library" (paper §II-C1: the HiPER MPI module relies
//! on a full MPI library — OpenMPI, MVAPICH, … — for the actual messaging).
//!
//! `RawComm` is that library for the simulated cluster: an eager-protocol
//! point-to-point engine with MPI matching semantics (posted-receive queue,
//! unexpected-message queue, `ANY_SOURCE`/`ANY_TAG` wildcards, non-overtaking
//! order per (source, tag)), `MPI_Request`-style nonblocking handles with
//! `test`/`wait`, and the collective algorithms benchmarks need (dissemination
//! barrier, binomial broadcast/reduce, allreduce, gather, allgather,
//! alltoall, alltoallv).
//!
//! Blocking calls park the calling OS thread — exactly like a real MPI
//! library. The latency-hiding comparison in the paper's evaluation hinges on
//! this: baselines call these blocking APIs directly, while the HiPER module
//! wraps the nonblocking ones in futures.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use bytes::Bytes;
use hiper_netsim::collective::{self, CollLink};
use hiper_netsim::{Channel, Message, Rank, ReliableTransport, RetryConfig, Transport};
use hiper_runtime::ModuleError;
use parking_lot::{Condvar, Mutex};

/// Wildcard source (MPI_ANY_SOURCE analogue).
pub const ANY_SOURCE: Option<Rank> = None;
/// Wildcard tag (MPI_ANY_TAG analogue).
pub const ANY_TAG: Option<u64> = None;

/// Bit 63 marks tags reserved for collective internals.
const INTERNAL: u64 = 1 << 63;

fn internal_tag(op: u8, round: u8, seq: u64) -> u64 {
    INTERNAL | ((op as u64) << 48) | ((round as u64) << 40) | (seq & 0xFF_FFFF_FFFF)
}

/// Opcodes 1-3 are the tree collectives of [`hiper_netsim::collective`].
mod collop {
    pub const GATHER: u8 = 5;
    pub const ALLTOALL: u8 = 7;
    pub const ALLTOALLV: u8 = 8;
    pub const SCAN: u8 = 9;
}

/// Completion status of a receive: payload plus its envelope.
#[derive(Debug, Clone)]
pub struct RecvStatus {
    /// Received payload.
    pub data: Bytes,
    /// Actual source rank.
    pub src: Rank,
    /// Actual tag.
    pub tag: u64,
}

enum ReqState {
    Pending,
    Done(RecvStatus),
}

struct ReqInner {
    state: Mutex<ReqState>,
    cond: Condvar,
}

/// A nonblocking-operation handle (MPI_Request analogue).
#[derive(Clone)]
pub struct Request {
    inner: Arc<ReqInner>,
}

impl Request {
    fn pending() -> Request {
        Request {
            inner: Arc::new(ReqInner {
                state: Mutex::new(ReqState::Pending),
                cond: Condvar::new(),
            }),
        }
    }

    fn completed(status: RecvStatus) -> Request {
        Request {
            inner: Arc::new(ReqInner {
                state: Mutex::new(ReqState::Done(status)),
                cond: Condvar::new(),
            }),
        }
    }

    fn complete(&self, status: RecvStatus) {
        let mut st = self.inner.state.lock();
        debug_assert!(matches!(*st, ReqState::Pending), "request completed twice");
        *st = ReqState::Done(status);
        self.inner.cond.notify_all();
    }

    /// Nonblocking completion check (MPI_Test analogue).
    pub fn test(&self) -> bool {
        matches!(*self.inner.state.lock(), ReqState::Done(_))
    }

    /// Blocks the calling OS thread until complete; returns the status
    /// (MPI_Wait analogue).
    pub fn wait(&self) -> RecvStatus {
        let mut st = self.inner.state.lock();
        loop {
            match &*st {
                ReqState::Done(status) => return status.clone(),
                ReqState::Pending => self.inner.cond.wait(&mut st),
            }
        }
    }

    /// Returns the status if complete.
    pub fn try_status(&self) -> Option<RecvStatus> {
        match &*self.inner.state.lock() {
            ReqState::Done(status) => Some(status.clone()),
            ReqState::Pending => None,
        }
    }
}

impl std::fmt::Debug for Request {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Request")
            .field("done", &self.test())
            .finish()
    }
}

struct PostedRecv {
    src: Option<Rank>,
    tag: Option<u64>,
    req: Request,
}

#[derive(Default)]
struct MatchState {
    posted: Vec<PostedRecv>,
    unexpected: Vec<(Rank, u64, Bytes)>,
}

/// One rank's endpoint of the raw messaging library (MPI_COMM_WORLD).
///
/// All traffic is routed through a [`ReliableTransport`]: with no armed
/// fault plan it is a pass-through, but under fault injection every message
/// is acked, retransmitted with exponential backoff on timeout, and
/// resequenced, so MPI matching semantics survive drops and reordering.
pub struct RawComm {
    transport: Arc<ReliableTransport>,
    state: Mutex<MatchState>,
    coll_seq: AtomicU64,
}

impl RawComm {
    /// Creates the endpoint and registers its delivery handler. Call once
    /// per rank, before any communication.
    pub fn new(transport: Transport) -> Arc<RawComm> {
        let rel = ReliableTransport::new(transport, "mpi", RetryConfig::default());
        let comm = Arc::new(RawComm {
            transport: rel,
            state: Mutex::new(MatchState::default()),
            coll_seq: AtomicU64::new(0),
        });
        let comm2 = Arc::clone(&comm);
        comm.transport
            .register_handler(Channel::MPI, Box::new(move |msg| comm2.on_message(msg)));
        comm
    }

    /// This rank.
    pub fn rank(&self) -> Rank {
        self.transport.rank()
    }

    /// Cluster size.
    pub fn nranks(&self) -> usize {
        self.transport.nranks()
    }

    /// Reliable-delivery health: `Err` once any peer has exhausted its
    /// retry budget (fault injection only).
    pub fn health(&self) -> Result<(), ModuleError> {
        self.transport.health()
    }

    /// Retransmissions performed so far (0 without fault injection).
    pub fn retries(&self) -> u64 {
        self.transport.retry_count()
    }

    /// The underlying reliable endpoint (for stats and message-path
    /// tuning — coalescing config, ack counters).
    pub fn reliable(&self) -> &Arc<ReliableTransport> {
        &self.transport
    }

    fn on_message(&self, msg: Message) {
        let mut st = self.state.lock();
        // Match in posted order (MPI semantics).
        if let Some(idx) = st
            .posted
            .iter()
            .position(|p| p.src.is_none_or(|s| s == msg.src) && p.tag.is_none_or(|t| t == msg.tag))
        {
            let posted = st.posted.remove(idx);
            drop(st);
            posted.req.complete(RecvStatus {
                data: msg.payload,
                src: msg.src,
                tag: msg.tag,
            });
        } else {
            st.unexpected.push((msg.src, msg.tag, msg.payload));
        }
    }

    // ------------------------------------------------------------------
    // Point-to-point
    // ------------------------------------------------------------------

    /// Eager blocking send: completes locally once the payload is handed to
    /// the transport (MPI_Send with buffered semantics).
    pub fn send(&self, dst: Rank, tag: u64, data: Bytes) {
        debug_assert_eq!(tag & INTERNAL, 0, "tag bit 63 is reserved");
        self.transport.send(dst, Channel::MPI, tag, data);
    }

    /// Nonblocking send (MPI_Isend). Eager: the returned request is already
    /// complete.
    pub fn isend(&self, dst: Rank, tag: u64, data: Bytes) -> Request {
        self.send(dst, tag, data);
        Request::completed(RecvStatus {
            data: Bytes::new(),
            src: self.rank(),
            tag,
        })
    }

    /// Nonblocking receive (MPI_Irecv): matches the unexpected queue first,
    /// then posts.
    pub fn irecv(&self, src: Option<Rank>, tag: Option<u64>) -> Request {
        let mut st = self.state.lock();
        if let Some(idx) = st.unexpected.iter().position(|(s, t, _)| {
            src.is_none_or(|want| want == *s) && tag.is_none_or(|want| want == *t)
        }) {
            let (s, t, data) = st.unexpected.remove(idx);
            return Request::completed(RecvStatus {
                data,
                src: s,
                tag: t,
            });
        }
        let req = Request::pending();
        st.posted.push(PostedRecv {
            src,
            tag,
            req: req.clone(),
        });
        req
    }

    /// Blocking receive (MPI_Recv): parks the calling OS thread.
    pub fn recv(&self, src: Option<Rank>, tag: Option<u64>) -> RecvStatus {
        self.irecv(src, tag).wait()
    }

    // ------------------------------------------------------------------
    // Collectives. All ranks must call each collective in the same order
    // (MPI requirement); a per-rank sequence number keeps consecutive
    // collectives from cross-matching.
    // ------------------------------------------------------------------

    fn next_seq(&self) -> u64 {
        self.coll_seq.fetch_add(1, Ordering::Relaxed)
    }

    /// Dissemination barrier: log2(P) rounds.
    pub fn barrier(&self) {
        collective::barrier(self, self.rank(), self.nranks(), self.next_seq());
    }

    /// Binomial-tree broadcast from `root`; returns the broadcast payload on
    /// every rank (`data` is ignored on non-roots).
    pub fn bcast(&self, root: Rank, data: Bytes) -> Bytes {
        let seq = self.next_seq();
        collective::bcast(self, self.rank(), self.nranks(), seq, root, data)
    }

    /// Binomial-tree reduction of byte payloads to rank 0 with a caller
    /// `combine`; returns `Some(result)` on rank 0, `None` elsewhere.
    pub fn reduce_bytes(
        &self,
        mine: Bytes,
        combine: &dyn Fn(&[u8], &[u8]) -> Bytes,
    ) -> Option<Bytes> {
        let seq = self.next_seq();
        collective::reduce(self, self.rank(), self.nranks(), seq, mine, combine)
    }

    /// Reduce + broadcast: every rank gets the combined value.
    pub fn allreduce_bytes(&self, mine: Bytes, combine: &dyn Fn(&[u8], &[u8]) -> Bytes) -> Bytes {
        let reduced = self.reduce_bytes(mine, combine);
        self.bcast(0, reduced.unwrap_or_default())
    }

    /// Gather to rank 0: returns `Some(per-rank payloads)` on rank 0.
    pub fn gather(&self, mine: Bytes) -> Option<Vec<Bytes>> {
        let seq = self.next_seq();
        let p = self.nranks();
        let me = self.rank();
        if me == 0 {
            let mut out = vec![Bytes::new(); p];
            out[0] = mine;
            // Receive from each rank; tags disambiguate by (src, seq).
            let reqs: Vec<(Rank, Request)> = (1..p)
                .map(|src| {
                    (
                        src,
                        self.irecv(Some(src), Some(internal_tag(collop::GATHER, 0, seq))),
                    )
                })
                .collect();
            for (src, req) in reqs {
                out[src] = req.wait().data;
            }
            Some(out)
        } else {
            self.coll_send(0, collop::GATHER, 0, seq, mine);
            None
        }
    }

    /// Allgather: every rank gets every rank's payload (gather + bcast of
    /// the concatenation).
    pub fn allgather(&self, mine: Bytes) -> Vec<Bytes> {
        let p = self.nranks();
        let gathered = self.gather(mine);
        // Root concatenates with a length prefix per entry, then broadcasts.
        let packed = gathered.map(|parts| {
            let mut buf = Vec::new();
            for part in &parts {
                buf.extend_from_slice(&(part.len() as u64).to_le_bytes());
                buf.extend_from_slice(part);
            }
            Bytes::from(buf)
        });
        let packed = self.bcast(0, packed.unwrap_or_default());
        // Unpack.
        let mut out = Vec::with_capacity(p);
        let mut off = 0usize;
        for _ in 0..p {
            let mut len8 = [0u8; 8];
            len8.copy_from_slice(&packed[off..off + 8]);
            let len = u64::from_le_bytes(len8) as usize;
            off += 8;
            out.push(packed.slice(off..off + len));
            off += len;
        }
        out
    }

    /// Alltoall: `parts[d]` goes to rank `d`; returns what each rank sent to
    /// us, indexed by source. Implements the O(P²) exchange that makes flat
    /// ISx degrade at scale (paper §III-B).
    pub fn alltoall(&self, parts: Vec<Bytes>) -> Vec<Bytes> {
        self.exchange(collop::ALLTOALL, parts)
    }

    /// Alltoallv is alltoall with per-pair sizes; with self-sizing payloads
    /// it is the same exchange under a different internal opcode.
    pub fn alltoallv(&self, parts: Vec<Bytes>) -> Vec<Bytes> {
        self.exchange(collop::ALLTOALLV, parts)
    }

    fn exchange(&self, op: u8, parts: Vec<Bytes>) -> Vec<Bytes> {
        let seq = self.next_seq();
        let p = self.nranks();
        let me = self.rank();
        assert_eq!(parts.len(), p, "alltoall requires one part per rank");
        let tag = internal_tag(op, 0, seq);
        // Post all receives first (avoids unexpected-queue churn), then send.
        let reqs: Vec<(Rank, Request)> = (0..p)
            .filter(|&src| src != me)
            .map(|src| (src, self.irecv(Some(src), Some(tag))))
            .collect();
        let mut out = vec![Bytes::new(); p];
        for (dst, part) in parts.into_iter().enumerate() {
            if dst == me {
                out[me] = part;
            } else {
                self.transport.send(dst, Channel::MPI, tag, part);
            }
        }
        for (src, req) in reqs {
            out[src] = req.wait().data;
        }
        out
    }

    /// Exclusive prefix "sum" over byte payloads (ring algorithm): rank `r`
    /// receives the combination of ranks `0..r`; rank 0 receives `identity`.
    pub fn exscan_bytes(
        &self,
        mine: Bytes,
        identity: Bytes,
        combine: &dyn Fn(&[u8], &[u8]) -> Bytes,
    ) -> Bytes {
        let seq = self.next_seq();
        let p = self.nranks();
        let me = self.rank();
        if me + 1 < p {
            // Pass the running prefix up the ring.
            let prefix = if me == 0 {
                identity.clone()
            } else {
                self.coll_recv(me - 1, collop::SCAN, 0, seq)
            };
            let next = combine(&prefix, &mine);
            self.coll_send(me + 1, collop::SCAN, 0, seq, next);
            prefix
        } else if me == 0 {
            // Single rank.
            identity
        } else {
            self.coll_recv(me - 1, collop::SCAN, 0, seq)
        }
    }
}

impl CollLink for RawComm {
    fn coll_send(&self, dst: Rank, op: u8, round: u8, seq: u64, data: Bytes) {
        self.transport
            .send(dst, Channel::MPI, internal_tag(op, round, seq), data);
    }

    fn coll_recv(&self, src: Rank, op: u8, round: u8, seq: u64) -> Bytes {
        self.irecv(Some(src), Some(internal_tag(op, round, seq)))
            .wait()
            .data
    }
}

impl std::fmt::Debug for RawComm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "RawComm(rank {}/{})", self.rank(), self.nranks())
    }
}
