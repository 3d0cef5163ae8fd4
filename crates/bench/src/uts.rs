//! UTS — Unbalanced Tree Search (paper Fig. 7, strong scaling).
//!
//! The tree is a deterministic function of the root seed: each node carries
//! a 20-byte SHA-1 descriptor, children's descriptors are SHA-1 hashes of
//! (parent, index) (see [`crate::sha1`]), and the number of children is
//! geometrically distributed with mean `b0`, truncated at `max_depth` — the
//! GEO tree family of the reference UTS. Counting the nodes requires
//! traversing them, and the tree's imbalance is what stresses distributed
//! load balancing.
//!
//! All three distributed implementations share the same app-level
//! load-balancing protocol over the symmetric heap (`LocalState`: a rank
//! that runs dry asks its peers and sleeps on a wake word, a rank that holds
//! nodes answers with about half of them in one put, an outstanding-work
//! counter at rank 0 and a done flag end the run), exactly as the paper's
//! three versions share "manual, application-level, distributed load
//! balancing". They differ in the *local* execution model:
//!
//! * [`run_omp`] — OpenSHMEM+OpenMP: fork-join `parallel_for` rounds over
//!   frontier batches (implicit barrier per batch), requests answered
//!   between rounds, blocking SHMEM calls.
//! * [`run_omp_tasks`] — OpenSHMEM+OpenMP Tasks: per-node dynamic tasks but
//!   a **coarse `taskwait` before every load-balancing/termination check**
//!   (the §III-C1 weakness).
//! * [`run_hiper`] — AsyncSHMEM: HiPER tasks that answer requests *while
//!   they expand*, and idle waits as `shmem_wait_until` on the task, not the
//!   core.

use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;

use hiper_forkjoin::Pool;
use hiper_runtime::api;
use hiper_shmem::{Cmp, RawShmem, ShmemModule, SymPtr};

use crate::sha1::{descriptor_to_unit, uts_child, uts_root, DIGEST_LEN};

/// GEO-tree parameters.
#[derive(Debug, Clone, Copy)]
pub struct UtsParams {
    /// Root seed.
    pub seed: u32,
    /// Expected branching factor (geometric distribution mean).
    pub b0: f64,
    /// Fixed fanout of the root (as in reference UTS, so the tree never
    /// dies at depth zero).
    pub root_children: u32,
    /// Depth cutoff: nodes at this depth are leaves.
    pub max_depth: u32,
}

impl Default for UtsParams {
    fn default() -> Self {
        UtsParams {
            seed: 19,
            b0: 2.0,
            root_children: 4,
            max_depth: 13,
        }
    }
}

/// A tree node: depth plus SHA-1 descriptor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Node {
    /// Depth in the tree (root = 0).
    pub depth: u32,
    /// SHA-1 state identifying the node.
    pub desc: [u8; DIGEST_LEN],
}

impl Node {
    /// The root node of the parameterized tree.
    pub fn root(params: &UtsParams) -> Node {
        Node {
            depth: 0,
            desc: uts_root(params.seed),
        }
    }

    /// Number of children (deterministic in the descriptor).
    pub fn num_children(&self, params: &UtsParams) -> u32 {
        if self.depth >= params.max_depth {
            return 0;
        }
        if self.depth == 0 {
            return params.root_children;
        }
        // Geometric with mean b0: P(X = k) = (1-p) p^k, p = b0/(1+b0).
        let p = params.b0 / (1.0 + params.b0);
        let u = descriptor_to_unit(&self.desc);
        let k = ((1.0 - u).ln() / p.ln()).floor();
        k.max(0.0) as u32
    }

    /// The `i`th child.
    pub fn child(&self, i: u32) -> Node {
        Node {
            depth: self.depth + 1,
            desc: uts_child(&self.desc, i),
        }
    }

    /// Packs a node into four u64 words for the symmetric heap.
    pub fn pack(&self) -> [u64; 4] {
        let mut w = [0u64; 4];
        w[0] = self.depth as u64;
        let mut buf = [0u8; 24];
        buf[..DIGEST_LEN].copy_from_slice(&self.desc);
        for i in 0..3 {
            w[i + 1] = u64::from_le_bytes(buf[i * 8..i * 8 + 8].try_into().unwrap());
        }
        w
    }

    /// Unpacks a node from four u64 words.
    pub fn unpack(w: &[u64; 4]) -> Node {
        let mut buf = [0u8; 24];
        for i in 0..3 {
            buf[i * 8..i * 8 + 8].copy_from_slice(&w[i + 1].to_le_bytes());
        }
        let mut desc = [0u8; DIGEST_LEN];
        desc.copy_from_slice(&buf[..DIGEST_LEN]);
        Node {
            depth: w[0] as u32,
            desc,
        }
    }
}

/// Sequential oracle: exact node count by depth-first traversal.
pub fn seq_count(params: &UtsParams) -> u64 {
    let mut stack = vec![Node::root(params)];
    let mut count = 0u64;
    while let Some(node) = stack.pop() {
        count += 1;
        for i in 0..node.num_children(params) {
            stack.push(node.child(i));
        }
    }
    count
}

// ---------------------------------------------------------------------
// Shared distributed machinery
// ---------------------------------------------------------------------

/// Nodes one hand-over carries at most: the capacity of an inbox.
const HANDOVER_CAP: usize = 1024;
/// A rank shares only while it expects the nodes it holds to grow into at
/// least this many. Dealing, packing and sending cost the giver about as
/// long as counting five hundred nodes, so with less than this it is done
/// sooner by keeping them; the limit is also what ends a run in one short
/// wait instead of a string of ever smaller hand-overs.
const SHARE_MIN_WORK: u64 = 1024;
/// Before it shares, a rank expands the shallowest nodes it holds until it
/// has this many: the halves of a few large subtrees differ by a large
/// subtree, the halves of many small ones hardly.
const SHARE_WIDTH: usize = 512;
/// ... but no node expected to carry as few as this many: halves that
/// differ by one of these finish within microseconds of each other, and
/// finer ones would only keep the rank that asked waiting.
const SHARE_GRAIN: u64 = 16;
/// What a rank gives is less than what it keeps by one part in this many of
/// the latter. Halves never turn out equal, and it is the rank that asked
/// that should finish first: it asks again while the giver still works, and
/// the second, smaller hand-over evens out what the first got wrong. Were
/// the giver to finish first, it would wait for the other idle.
const KEEP_MARGIN: u64 = 5;
/// Nodes a task expands between looks at its peers' requests.
const POLL_INTERVAL: usize = 32;
/// Nodes a task expands between offers of its core to other threads (see
/// [`spawn_expand`]): about 0.1 ms of work.
const PROGRESS_INTERVAL: usize = 512;

/// Words per packed node.
const NODE_WORDS: usize = 4;
/// Words per inbox: a header (`nodes | credit << 32`, zero when empty), then
/// the nodes.
const INBOX_WORDS: usize = 1 + HANDOVER_CAP * NODE_WORDS;

/// Symmetric-heap layout for the load-balancing protocol (allocated
/// identically on every rank).
struct StealArena {
    /// One word per peer: non-zero while that peer has run dry and asks this
    /// rank for nodes. The peer sets it, this rank clears it when it answers.
    asks: SymPtr,
    /// One inbox per peer, written only by that peer and only in answer to a
    /// request, so never twice before this rank has emptied it.
    inbox: SymPtr,
    /// Outstanding-work counter (meaningful at rank 0).
    outstanding: SymPtr,
    /// Done flag (set on every rank by rank 0).
    done: SymPtr,
    /// Set by a peer after it filled this rank's inbox, and by rank 0 along
    /// with `done`. An idle rank sleeps on it.
    wake: SymPtr,
}

impl StealArena {
    /// Collective allocation; all ranks must call in the same order.
    fn alloc(raw: &RawShmem) -> StealArena {
        StealArena {
            asks: raw.malloc64(raw.nranks()),
            inbox: raw.malloc64(raw.nranks() * INBOX_WORDS),
            outstanding: raw.malloc64(1),
            done: raw.malloc64(1),
            wake: raw.malloc64(1),
        }
    }

    fn init(&self, raw: &RawShmem, is_root_rank: bool) {
        for peer in 0..raw.nranks() {
            raw.heap().store_u64(self.asks.at64(peer), 0);
            raw.heap().store_u64(self.inbox_header(peer), 0);
        }
        raw.heap().store_i64(self.done.offset, 0);
        raw.heap().store_i64(self.wake.offset, 0);
        raw.heap()
            .store_i64(self.outstanding.offset, if is_root_rank { 1 } else { 0 });
    }

    /// Offset of the header of the inbox `peer` writes.
    fn inbox_header(&self, peer: usize) -> usize {
        self.inbox.at64(peer * INBOX_WORDS)
    }
}

/// Rank-local half of the load-balancing protocol, shared by the three
/// implementations (DESIGN.md, "UTS load balancing").
///
/// **Sharing** is on request. A rank that has run dry sets its word in
/// every peer's `asks` and sleeps on `wake`. A rank that holds nodes looks
/// at `asks` as it works ([`poll`](Self::poll)) and answers with a little
/// less than half of what it holds *at that moment*, measured in expected
/// subtree sizes ([`hand_over`](Self::hand_over)): a put into the asker's
/// inbox, then `wake`. A hand-over costs the asker one round trip and needs
/// no lock. Halves of an unbalanced tree never turn out equal, so the giver
/// keeps the larger: the rank that asked is the one to run dry first and to
/// ask again, while the giver still works, and each hand-over is a tenth
/// the size of the one before. What a run costs then hardly depends on how
/// the first split turned out, that is, on the tree.
///
/// **Termination** rests on one invariant: rank 0's `outstanding` counter
/// is never zero while a node exists anywhere. Counting is batched: a rank
/// adds `children - 1` per node to `pending` and sends it on later, so the
/// counter lags. What keeps the lag harmless is `credit`: the units of the
/// counter this rank holds, `nodes on its stacks - pending`. A rank that
/// holds a node holds at least one unit. Growth becomes credit once rank 0
/// has acknowledged it; a hand-over moves some of the giver's units along
/// with the nodes and never its last one, so it needs two; a rank returns
/// units only when it has no node left, and writes them off before the
/// message leaves. Without the second rule a rank could give its only unit
/// away with the nodes: the asker finishes them, hands the unit back, and
/// the counter reads zero while the giver's own `+children` is still unsent.
struct LocalState {
    raw: Arc<RawShmem>,
    arena: StealArena,
    params: UtsParams,
    /// Expected size of the subtree under a node, by the node's depth.
    expected: Vec<u64>,
    /// Sum of `children - 1` over nodes counted here, not yet sent to rank 0.
    pending: AtomicI64,
    /// Units of rank 0's counter held by this rank.
    credit: AtomicI64,
    /// A positive `pending` is on its way to rank 0 and not yet acknowledged.
    reporting: AtomicBool,
    /// One of this rank's tasks is inside [`share`](Self::share).
    sharing: AtomicBool,
    /// Value of `counted` before which a request this rank had too little
    /// for is not worth another look.
    look_again: AtomicU64,
    /// Per peer: this rank's request stands there, unanswered.
    asked: Vec<AtomicBool>,
    /// Nodes counted by this rank.
    counted: AtomicU64,
}

impl LocalState {
    /// Allocates and zeroes the arena (collective, ends in a barrier) and,
    /// on rank 0, arms the termination broadcast.
    fn start(raw: &Arc<RawShmem>, params: &UtsParams, barrier: impl FnOnce()) -> Arc<LocalState> {
        let arena = StealArena::alloc(raw);
        arena.init(raw, raw.rank() == 0);
        barrier();
        // A node at the cut-off is itself; one above it, itself and `b0`
        // children on average.
        let mut expected = vec![1.0f64; params.max_depth as usize + 1];
        for depth in (0..params.max_depth as usize).rev() {
            expected[depth] = 1.0 + params.b0 * expected[depth + 1];
        }
        let state = Arc::new(LocalState {
            raw: Arc::clone(raw),
            arena,
            params: *params,
            expected: expected.into_iter().map(|e| e as u64).collect(),
            pending: AtomicI64::new(0),
            // The counter starts at one, for the root, which rank 0 holds.
            credit: AtomicI64::new(if raw.rank() == 0 { 1 } else { 0 }),
            reporting: AtomicBool::new(false),
            sharing: AtomicBool::new(false),
            look_again: AtomicU64::new(0),
            asked: (0..raw.nranks()).map(|_| AtomicBool::new(false)).collect(),
            counted: AtomicU64::new(0),
        });
        if raw.rank() == 0 {
            // Zero means no node is left anywhere (the invariant above), so
            // this needs no idle check: it fires from whichever fetch-add
            // brings the counter to zero.
            let me = Arc::clone(&state);
            raw.register_when(
                state.arena.outstanding.offset,
                Cmp::Eq,
                0,
                Box::new(move || {
                    // `done` before `wake`, as two puts: whoever wakes must
                    // find `done` set.
                    for r in 1..me.raw.nranks() {
                        me.raw.put64(r, me.arena.done.offset, &[1]);
                        me.raw.put64(r, me.arena.wake.offset, &[1]);
                    }
                    me.raw.store_local_i64(me.arena.done.offset, 1);
                    me.raw.store_local_i64(me.arena.wake.offset, 1);
                }),
            );
        }
        state
    }

    fn initial_frontier(&self) -> Vec<Node> {
        if self.raw.rank() == 0 {
            vec![Node::root(&self.params)]
        } else {
            Vec::new()
        }
    }

    /// Counts `nodes` processed nodes whose `children - 1` sum to `delta`.
    fn count(&self, nodes: u64, delta: i64) {
        self.counted.fetch_add(nodes, Ordering::Relaxed);
        self.pending.fetch_add(delta, Ordering::AcqRel);
    }

    /// Records one processed node with `children` children.
    fn record(&self, children: u32) {
        self.count(1, children as i64 - 1);
    }

    fn is_done(&self) -> bool {
        self.raw.heap().load_i64(self.arena.done.offset) == 1
    }

    fn peers(&self) -> impl Iterator<Item = usize> {
        let (me, p) = (self.raw.rank(), self.raw.nranks());
        (1..p).map(move |k| (me + k) % p)
    }

    /// Sends a positive `pending` to rank 0; the credit arrives with the
    /// acknowledgement (at once on rank 0 itself). One report at a time.
    fn report_growth(self: &Arc<Self>) {
        let delta = self.pending.load(Ordering::Acquire);
        if delta <= 0 || self.reporting.swap(true, Ordering::AcqRel) {
            return;
        }
        self.pending.fetch_sub(delta, Ordering::AcqRel);
        let me = Arc::clone(self);
        self.raw.fadd_cb(
            0,
            self.arena.outstanding.offset,
            delta as u64,
            Box::new(move |_| {
                me.credit.fetch_add(delta, Ordering::AcqRel);
                me.reporting.store(false, Ordering::Release);
            }),
        );
    }

    /// Called with no node left on this rank's stacks: hands back the units
    /// of the nodes that ended here. `pending` cannot be positive then, and
    /// the units are written off before the message leaves, so a later
    /// hand-over cannot spend them.
    fn report_idle(&self) {
        let delta = self.pending.swap(0, Ordering::AcqRel);
        if delta != 0 {
            debug_assert!(delta < 0, "an empty rank holds uncounted nodes");
            self.credit.fetch_add(delta, Ordering::AcqRel);
            self.raw.fadd_cb(
                0,
                self.arena.outstanding.offset,
                delta as u64,
                Box::new(|_| {}),
            );
        }
    }

    /// What a rank that holds nodes does every so often, with the counts of
    /// the nodes it processed already in ([`count`](Self::count)): keeps a
    /// second unit of credit at hand, so that it can share the moment it is
    /// asked, and answers whoever asks.
    fn poll(self: &Arc<Self>, stack: &mut Vec<Node>) {
        if self.credit.load(Ordering::Acquire) < 2 {
            self.report_growth();
        }
        let heap = self.raw.heap();
        if self
            .peers()
            .any(|peer| heap.load_u64(self.arena.asks.at64(peer)) != 0)
            && self.counted.load(Ordering::Relaxed) >= self.look_again.load(Ordering::Relaxed)
        {
            self.share(stack);
        }
    }

    /// Answers the peers that ask, each with half of `stack` as it then is
    /// (and of anything handed to this rank that it has not picked up yet).
    fn share(self: &Arc<Self>, stack: &mut Vec<Node>) {
        if self.sharing.swap(true, Ordering::Acquire) {
            return;
        }
        stack.append(&mut self.collect());
        let heap = self.raw.heap();
        for peer in self.peers() {
            if heap.load_u64(self.arena.asks.at64(peer)) != 0 && !self.hand_over(stack, peer) {
                break;
            }
        }
        self.sharing.store(false, Ordering::Release);
    }

    /// Expected number of nodes under `node`, itself included, given how many
    /// children it has. Those are cheap to count (hashing them is not), and
    /// depth alone misleads: what a rank has left towards the end are the
    /// nodes with the most children, several times their depth's average.
    fn work_under(&self, node: &Node) -> u64 {
        match node.num_children(&self.params) as u64 {
            0 => 1,
            n => 1 + n * self.expected[node.depth as usize + 1],
        }
    }

    /// Moves about half of the work in `stack` to `peer`, which asked for
    /// it. Returns false, and leaves the request standing, when there is too
    /// little to share or the credit for it is still on its way.
    fn hand_over(self: &Arc<Self>, stack: &mut Vec<Node>, peer: usize) -> bool {
        let total: u64 = stack.iter().map(|node| self.work_under(node)).sum();
        if total < SHARE_MIN_WORK {
            // Estimates only grow by surprise: no use adding them up again
            // after every few nodes.
            let counted = self.counted.load(Ordering::Relaxed);
            self.look_again
                .store(counted + SHARE_MIN_WORK / 4, Ordering::Relaxed);
            return false;
        }
        if self.credit.load(Ordering::Acquire) < 2 {
            self.report_growth();
            return false;
        }
        // Widen: the shallowest nodes are replaced by their children until
        // there are enough to deal. These are nodes this rank would expand
        // anyway.
        let mut by_depth = vec![Vec::new(); self.expected.len()];
        let mut held = stack.len();
        for node in stack.drain(..) {
            by_depth[node.depth as usize].push(node);
        }
        let (mut nodes, mut delta) = (0u64, 0i64);
        for depth in 0..by_depth.len() - 1 {
            if self.expected[depth] <= SHARE_GRAIN {
                break;
            }
            while held < SHARE_WIDTH {
                let Some(node) = by_depth[depth].pop() else {
                    break;
                };
                let n = node.num_children(&self.params);
                by_depth[depth + 1].extend((0..n).map(|c| node.child(c)));
                held = held + n as usize - 1;
                nodes += 1;
                delta += n as i64 - 1;
            }
        }
        // Deal, largest subtrees first, each node to the side that has less;
        // a childless node is counted here and now. What is kept ends up
        // smallest on top, as a depth-first stack wants.
        let mut dealt = Vec::with_capacity(held);
        for node in by_depth.into_iter().flatten() {
            match self.work_under(&node) {
                1 => {
                    nodes += 1;
                    delta -= 1;
                }
                work => dealt.push((work, node)),
            }
        }
        self.count(nodes, delta);
        dealt.sort_unstable_by_key(|&(work, _)| std::cmp::Reverse(work));
        let (mut given, mut kept) = (Vec::new(), Vec::with_capacity(dealt.len()));
        let (mut given_work, mut kept_work) = (0u64, 0u64);
        for (work, node) in dealt {
            if given_work + work <= kept_work - kept_work / KEEP_MARGIN
                && given.len() < HANDOVER_CAP
            {
                given_work += work;
                given.push(node);
            } else {
                kept_work += work;
                kept.push(node);
            }
        }
        *stack = kept;
        if given.is_empty() {
            return false;
        }
        // Half of the units go along, and the growth they do not cover
        // becomes the peer's to report.
        let (k, units) = (given.len() as i64, self.credit.load(Ordering::Acquire) / 2);
        self.credit.fetch_sub(units, Ordering::AcqRel);
        self.pending.fetch_sub(k - units, Ordering::AcqRel);
        // Cleared before the answer leaves: the peer asks again only after it
        // has seen the answer.
        self.raw.heap().store_u64(self.arena.asks.at64(peer), 0);
        let words: Vec<u64> = given.iter().flat_map(Node::pack).collect();
        let header = self.arena.inbox_header(self.raw.rank());
        // Three puts on one link, applied in this order.
        self.raw.put64(peer, header + 8, &words);
        self.raw
            .put64(peer, header, &[k as u64 | (units as u64) << 32]);
        self.raw.put64(peer, self.arena.wake.offset, &[1]);
        true
    }

    /// Empties this rank's inboxes: the nodes peers handed over, with the
    /// units and the unreported growth that came along.
    fn collect(&self) -> Vec<Node> {
        let heap = self.raw.heap();
        let mut nodes = Vec::new();
        for peer in self.peers() {
            let header = self.arena.inbox_header(peer);
            let word = heap.load_u64(header);
            if word == 0 {
                continue;
            }
            let (k, units) = ((word & 0xffff_ffff) as usize, (word >> 32) as i64);
            let mut words = (1..=k * NODE_WORDS).map(|i| heap.load_u64(header + 8 * i));
            nodes.extend((0..k).map(|_| {
                let mut w = [0u64; NODE_WORDS];
                w.fill_with(|| words.next().expect("a packed node is four words"));
                Node::unpack(&w)
            }));
            heap.store_u64(header, 0);
            self.asked[peer].store(false, Ordering::Relaxed);
            self.credit.fetch_add(units, Ordering::AcqRel);
            self.pending.fetch_add(k as i64 - units, Ordering::AcqRel);
        }
        nodes
    }

    /// What a rank does once its stacks are empty: picks up what peers
    /// handed it or, with nothing there, reports to rank 0, asks every peer
    /// it is not already asking, and sleeps until `wake` is set
    /// (`sleep_until_set` takes the word's offset): by a peer that answered,
    /// or by the end, for which it returns `None`.
    fn next_work(&self, sleep_until_set: impl Fn(usize)) -> Option<Vec<Node>> {
        loop {
            // Cleared before looking, so a wake-up sent for nodes this round
            // misses is still there to end the sleep.
            self.raw.heap().store_i64(self.arena.wake.offset, 0);
            let nodes = self.collect();
            if !nodes.is_empty() {
                return Some(nodes);
            }
            self.report_idle();
            for peer in self.peers() {
                if !self.asked[peer].swap(true, Ordering::Relaxed) {
                    self.raw
                        .put64(peer, self.arena.asks.at64(self.raw.rank()), &[1]);
                }
            }
            if self.is_done() {
                return None;
            }
            sleep_until_set(self.arena.wake.offset);
        }
    }

    /// [`next_work`](Self::next_work) that blocks the thread while it sleeps.
    fn next_work_blocking(&self) -> Option<Vec<Node>> {
        self.next_work(|offset| self.raw.wait_until(offset, Cmp::Ne, 0))
    }

    /// Collective. The `quiet` lands this rank's requests, which nobody
    /// waited for, before any rank can leave the reduction and reuse the
    /// arena.
    fn result(&self) -> UtsResult {
        self.raw.quiet();
        let local = self.counted.load(Ordering::SeqCst);
        let totals = self.raw.sum_to_all_u64(&[local]);
        UtsResult {
            local_count: local,
            global_count: totals[0],
        }
    }
}

/// Result of a distributed run.
#[derive(Debug, Clone, Copy)]
pub struct UtsResult {
    /// Nodes counted by this rank.
    pub local_count: u64,
    /// Global node total (identical on every rank).
    pub global_count: u64,
}

// ---------------------------------------------------------------------
// Implementation A: OpenSHMEM + OpenMP (parallel_for rounds)
// ---------------------------------------------------------------------

/// OpenSHMEM+OpenMP: frontier batches expanded with `parallel_for`
/// (implicit barrier per batch), requests answered between batches,
/// blocking raw SHMEM for load balancing.
pub fn run_omp(raw: &Arc<RawShmem>, pool: &Arc<Pool>, params: &UtsParams) -> UtsResult {
    let state = LocalState::start(raw, params, || raw.barrier_all());
    let mut frontier = state.initial_frontier();

    loop {
        if frontier.is_empty() {
            match state.next_work_blocking() {
                Some(nodes) => frontier = nodes,
                None => break,
            }
        }
        let batch: Vec<Node> = frontier.drain(..frontier.len().min(1024)).collect();
        let children: Arc<parking_lot::Mutex<Vec<Node>>> =
            Arc::new(parking_lot::Mutex::new(Vec::new()));
        {
            let batch = Arc::new(batch);
            let children = Arc::clone(&children);
            let state2 = Arc::clone(&state);
            let params = *params;
            let b = Arc::clone(&batch);
            pool.parallel_for_dynamic(batch.len(), 16, move |i| {
                let node = b[i];
                let n = node.num_children(&params);
                let mut kids = Vec::with_capacity(n as usize);
                for c in 0..n {
                    kids.push(node.child(c));
                }
                state2.record(n);
                if !kids.is_empty() {
                    children.lock().extend(kids);
                }
            });
        }
        frontier.append(&mut children.lock());
        state.poll(&mut frontier);
    }
    state.result()
}

// ---------------------------------------------------------------------
// Implementation B: OpenSHMEM + OpenMP Tasks (coarse taskwait)
// ---------------------------------------------------------------------

/// OpenSHMEM+OpenMP Tasks: per-node dynamic tasks, but a **coarse
/// `taskwait` on all pending tasks before every termination check and
/// load-balancing step** (paper §III-C1).
pub fn run_omp_tasks(raw: &Arc<RawShmem>, pool: &Arc<Pool>, params: &UtsParams) -> UtsResult {
    let state = LocalState::start(raw, params, || raw.barrier_all());
    let mut frontier = state.initial_frontier();

    loop {
        if frontier.is_empty() {
            match state.next_work_blocking() {
                Some(nodes) => frontier = nodes,
                None => break,
            }
        }
        // Spawn one task per frontier node...
        let group = pool.task_group();
        let children: Arc<parking_lot::Mutex<Vec<Node>>> =
            Arc::new(parking_lot::Mutex::new(Vec::new()));
        for node in frontier.drain(..frontier.len().min(1024)) {
            let children = Arc::clone(&children);
            let state2 = Arc::clone(&state);
            let params = *params;
            group.spawn(move || {
                let n = node.num_children(&params);
                let mut kids = Vec::with_capacity(n as usize);
                for c in 0..n {
                    kids.push(node.child(c));
                }
                state2.record(n);
                if !kids.is_empty() {
                    children.lock().extend(kids);
                }
            });
        }
        // ...then wait on ALL of them before anything else can happen.
        group.wait();
        frontier.append(&mut children.lock());
        state.poll(&mut frontier);
    }
    state.result()
}

// ---------------------------------------------------------------------
// Implementation C: HiPER / AsyncSHMEM
// ---------------------------------------------------------------------

/// AsyncSHMEM: each batch of nodes this rank obtains is expanded by
/// `spawn_expand` tasks under one `finish`, and those tasks answer the
/// peers that ask for nodes while they run. When the rank runs dry it asks
/// in turn and waits for the answer in `shmem_wait_until`, which blocks the
/// task and not the worker; there is no sleeping or polling of remote
/// memory. The end arrives as a put into `done`, sent by the
/// `shmem_async_when`-style registration rank 0 holds on its counter.
pub fn run_hiper(shmem: &Arc<ShmemModule>, params: &UtsParams) -> UtsResult {
    let state = LocalState::start(shmem.raw(), params, || shmem.barrier_all());
    let mut frontier = state.initial_frontier();

    loop {
        if frontier.is_empty() {
            match state.next_work(|offset| shmem.wait_until(offset, Cmp::Ne, 0)) {
                Some(nodes) => frontier = nodes,
                None => break,
            }
        }
        let roots = std::mem::take(&mut frontier);
        api::finish(|| spawn_expand(roots, Arc::clone(&state))).expect("no task panicked");
    }
    state.result()
}

/// Chunked recursive task expansion: each task owns a private node stack
/// and expands it depth-first. Every [`POLL_INTERVAL`] nodes it looks for
/// peers that ask for work and gives them half of its stack
/// ([`LocalState::poll`]), so an idle rank waits for one message each way
/// and not for this task to finish. A stack that outgrows `SPLIT_AT` splits
/// half into a sibling task for the rank's other workers. Chunking keeps
/// per-node overhead near the sequential cost.
///
/// Every [`PROGRESS_INTERVAL`] nodes the task offers its core to other
/// threads, the way UTS codes poll for progress inside the work loop. Where
/// the delivery engine shares the worker's core (two ranks plus the engine
/// on two cores), a task that never blocks otherwise keeps the engine
/// waiting for the rest of the worker's scheduler slice, and with it every
/// peer's request: 1.5 to 2 ms measured, against 0.1 ms for the message.
fn spawn_expand(mut stack: Vec<Node>, state: Arc<LocalState>) {
    const SPLIT_AT: usize = 2 * HANDOVER_CAP;
    let (mut nodes, mut delta) = (0u64, 0i64);
    let mut since_poll = 0usize;
    while let Some(node) = stack.pop() {
        let n = node.num_children(&state.params);
        nodes += 1;
        delta += n as i64 - 1;
        for c in 0..n {
            stack.push(node.child(c));
        }
        since_poll += 1;
        if since_poll.is_multiple_of(POLL_INTERVAL) {
            if since_poll == PROGRESS_INTERVAL {
                since_poll = 0;
                std::thread::yield_now();
            }
            state.count(std::mem::take(&mut nodes), std::mem::take(&mut delta));
            state.poll(&mut stack);
        }
        if stack.len() > SPLIT_AT {
            let half = stack.split_off(stack.len() / 2);
            let state = Arc::clone(&state);
            api::async_(move || spawn_expand(half, state));
        }
    }
    state.count(nodes, delta);
}

#[cfg(test)]
mod tests {
    use super::*;
    use hiper_netsim::{NetConfig, SpmdBuilder};
    use hiper_runtime::SchedulerModule;
    use hiper_shmem::ShmemWorld;

    fn tiny() -> UtsParams {
        UtsParams {
            seed: 7,
            b0: 2.0,
            root_children: 4,
            max_depth: 9,
        }
    }

    #[test]
    fn pack_unpack_roundtrip() {
        let params = tiny();
        let root = Node::root(&params);
        let child = root.child(2);
        assert_eq!(Node::unpack(&child.pack()), child);
    }

    #[test]
    fn tree_is_deterministic() {
        let params = tiny();
        let a = seq_count(&params);
        let b = seq_count(&params);
        assert_eq!(a, b);
        assert!(a > 10, "tree too small: {}", a);
        // Different seed, different tree (overwhelmingly).
        let other = seq_count(&UtsParams { seed: 8, ..params });
        assert_ne!(a, other);
    }

    #[test]
    fn branching_respects_depth_cutoff() {
        let params = tiny();
        let mut node = Node::root(&params);
        for _ in 0..params.max_depth {
            node = Node {
                depth: node.depth + 1,
                ..node
            };
        }
        assert_eq!(node.num_children(&params), 0);
    }

    fn check_impl(
        nranks: usize,
        run: impl Fn(&hiper_netsim::RankEnv, Arc<RawShmem>, Option<Arc<ShmemModule>>) -> UtsResult
            + Send
            + Sync
            + 'static,
        use_module: bool,
    ) {
        let params = tiny();
        let expected = seq_count(&params);
        let world = ShmemWorld::new(nranks, 1 << 21);
        let results = SpmdBuilder::new(nranks)
            .net(NetConfig::default())
            .workers_per_rank(2)
            .run(
                move |_r, t| {
                    if use_module {
                        let shmem = ShmemModule::new(world.clone(), t);
                        (
                            vec![Arc::clone(&shmem) as Arc<dyn SchedulerModule>],
                            (Arc::clone(shmem.raw()), Some(shmem)),
                        )
                    } else {
                        let raw = RawShmem::new(world.clone(), t);
                        (Vec::new(), (raw, None))
                    }
                },
                move |env, (raw, module)| run(&env, raw, module),
            );
        for r in &results {
            assert_eq!(r.global_count, expected, "global count mismatch");
        }
        let local_sum: u64 = results.iter().map(|r| r.local_count).sum();
        assert_eq!(local_sum, expected, "local counts must partition the tree");
    }

    #[test]
    fn omp_impl_counts_tree() {
        let params = tiny();
        check_impl(
            2,
            move |_env, raw, _m| {
                let pool = Pool::new(2);
                let r = run_omp(&raw, &pool, &params);
                pool.shutdown();
                r
            },
            false,
        );
    }

    #[test]
    fn omp_tasks_impl_counts_tree() {
        let params = tiny();
        check_impl(
            2,
            move |_env, raw, _m| {
                let pool = Pool::new(2);
                let r = run_omp_tasks(&raw, &pool, &params);
                pool.shutdown();
                r
            },
            false,
        );
    }

    #[test]
    fn hiper_impl_counts_tree() {
        let params = tiny();
        check_impl(
            3,
            move |_env, _raw, module| run_hiper(module.as_ref().unwrap(), &params),
            true,
        );
    }

    /// The three implementations on the `fig7_uts` shape (4 ranks x 2
    /// workers), lap after lap on one cluster as the harnesses run them:
    /// every lap counts the whole tree, and the ranks' shares partition it.
    fn check_laps(which: fn(&Arc<ShmemModule>, &Arc<Pool>, &UtsParams) -> UtsResult) {
        const LAPS: usize = 20;
        let trees: Vec<(UtsParams, u64)> = [19, 350, 486]
            .into_iter()
            .map(|seed| {
                let params = UtsParams {
                    seed,
                    max_depth: 11,
                    ..UtsParams::default()
                };
                (params, seq_count(&params))
            })
            .collect();
        let world = ShmemWorld::new(4, 1 << 21);
        let expected = trees.clone();
        let results = SpmdBuilder::new(4)
            .net(NetConfig::default())
            .workers_per_rank(2)
            .run(
                move |_r, t| {
                    let shmem = ShmemModule::new(world.clone(), t);
                    (vec![Arc::clone(&shmem) as Arc<dyn SchedulerModule>], shmem)
                },
                move |_env, shmem| {
                    let pool = Pool::new(2);
                    let watermark = shmem.raw().alloc_watermark();
                    let mut laps = Vec::new();
                    for (params, _) in &trees {
                        for _ in 0..LAPS {
                            shmem.barrier_all();
                            shmem.raw().reset_alloc(watermark);
                            shmem.barrier_all();
                            laps.push(which(&shmem, &pool, params));
                        }
                    }
                    pool.shutdown();
                    laps
                },
            );
        for (lap, (_, nodes)) in expected.iter().flat_map(|t| [t; LAPS]).enumerate() {
            for rank in &results {
                assert_eq!(rank[lap].global_count, *nodes, "lap {lap}");
            }
            let shares: u64 = results.iter().map(|rank| rank[lap].local_count).sum();
            assert_eq!(shares, *nodes, "lap {lap}: shares must partition the tree");
        }
    }

    #[test]
    fn omp_counts_every_lap_on_four_ranks() {
        check_laps(|shmem, pool, params| run_omp(shmem.raw(), pool, params));
    }

    #[test]
    fn omp_tasks_counts_every_lap_on_four_ranks() {
        check_laps(|shmem, pool, params| run_omp_tasks(shmem.raw(), pool, params));
    }

    #[test]
    fn hiper_counts_every_lap_on_four_ranks() {
        check_laps(|shmem, _pool, params| run_hiper(shmem, params));
    }

    /// The early-termination race, stepped by hand. Rank 1 is left with one
    /// unit of credit, a stack full of growth rank 0 has not heard of, and a
    /// request from rank 0. Were it to answer with nodes and no unit, it
    /// could then finish what it kept and return its own: the counter would
    /// read zero, and the end be announced, while rank 0 holds nodes.
    #[test]
    fn a_rank_does_not_hand_over_nodes_on_its_last_unit_of_credit() {
        let params = UtsParams::default();
        let world = ShmemWorld::new(2, 1 << 21);
        let step = Arc::new(std::sync::Barrier::new(2));
        // Checked once both ranks are out: a rank that panics between two
        // steps leaves the other waiting.
        let verdicts = SpmdBuilder::new(2)
            .net(NetConfig::default())
            .workers_per_rank(1)
            .run(
                move |_r, t| (Vec::new(), RawShmem::new(world.clone(), t)),
                move |env, raw| {
                    let state = LocalState::start(&raw, &params, || raw.barrier_all());
                    let peer = 1 - env.rank;
                    let asked = state.arena.asks.at64(peer);
                    let finish_all = |stack: &mut Vec<Node>| {
                        stack.drain(..).for_each(|_| state.record(0));
                    };
                    let mut stack = state.initial_frontier();
                    let verdict;
                    if env.rank == 0 {
                        let root = stack.pop().expect("rank 0 starts with the root");
                        state.record(4);
                        stack.extend((0..4).map(|i| root.child(i)));
                        raw.wait_until(asked, Cmp::Ne, 0);
                        state.poll(&mut stack);
                        // Out of nodes twice over: each time rank 1 is asked.
                        finish_all(&mut stack);
                        stack = state.next_work_blocking().expect("rank 1 has plenty");
                        finish_all(&mut stack);
                        let found = state.next_work_blocking();
                        // (rank 1 has finished its nodes and said so)
                        step.wait();
                        verdict = match found {
                            Some(mut nodes) => {
                                let counter = raw.heap().load_i64(state.arena.outstanding.offset);
                                finish_all(&mut nodes);
                                state.report_idle();
                                (counter >= 1)
                                    .then_some(())
                                    .ok_or("the end was announced while rank 0 held nodes")
                            }
                            None => Ok(()),
                        };
                    } else {
                        stack = state.next_work_blocking().expect("rank 0 holds the tree");
                        raw.wait_until(asked, Cmp::Ne, 0);
                        state.poll(&mut stack);
                        let units = state.credit.load(Ordering::SeqCst);
                        // Asked again, with one unit left.
                        raw.wait_until(asked, Cmp::Ne, 0);
                        let gave = state.hand_over(&mut stack, 0);
                        finish_all(&mut stack);
                        state.report_idle();
                        raw.quiet();
                        step.wait();
                        verdict = if units != 1 {
                            Err("rank 1 was to be left with one unit of credit")
                        } else if gave {
                            Err("rank 1 gave nodes away on its last unit of credit")
                        } else {
                            Ok(())
                        };
                    }
                    raw.wait_until(state.arena.done.offset, Cmp::Eq, 1);
                    state.result();
                    verdict
                },
            );
        assert_eq!(verdicts, [Ok(()), Ok(())]);
    }

    #[test]
    fn single_rank_all_impls_match_oracle() {
        let params = tiny();
        let expected = seq_count(&params);
        let world = ShmemWorld::new(1, 1 << 21);
        let results = SpmdBuilder::new(1)
            .net(NetConfig::instant())
            .workers_per_rank(2)
            .run(
                move |_r, t| {
                    let shmem = ShmemModule::new(world.clone(), t);
                    (vec![Arc::clone(&shmem) as Arc<dyn SchedulerModule>], shmem)
                },
                move |_env, shmem| {
                    let pool = Pool::new(2);
                    let a = run_omp(shmem.raw(), &pool, &params).global_count;
                    let b = run_omp_tasks(shmem.raw(), &pool, &params).global_count;
                    let c = run_hiper(&shmem, &params).global_count;
                    pool.shutdown();
                    (a, b, c)
                },
            );
        assert_eq!(results[0], (expected, expected, expected));
    }
}
