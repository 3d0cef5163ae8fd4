//! Graph500 — distributed breadth-first search (paper §III-C2).
//!
//! A Kronecker (R-MAT) graph of `2^scale` vertices with edge factor 16 is
//! partitioned 1-D (vertex `v` lives on rank `v % P`); BFS proceeds level-
//! synchronously, with discovered remote vertices shipped to their owners
//! through one-sided puts into per-source mailboxes in the symmetric heap.
//!
//! The two implementations differ exactly where the paper says they do:
//!
//! * [`run_reference_polling`] — the receiving rank **spins polling** each
//!   source's arrival flag every level ("Both the reference Graph 500
//!   implementations and \[18\] must constantly poll for incoming data. This
//!   polling adds overhead, and significantly complicates the
//!   implementation.").
//! * [`run_hiper`] — the arrival processing is a task predicated on the
//!   flag via **`shmem_async_when`**, offloading the polling to the HiPER
//!   runtime; batches are processed as they land, overlapping later
//!   arrivals.
//!
//! Validation follows the Graph500 rules: the parent of the root is the
//! root, every tree edge exists in the graph, and BFS levels agree exactly
//! with a serial oracle.

use std::collections::HashMap;
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Arc;

use hiper_mpi::RawComm;
use hiper_runtime::api;
use hiper_shmem::{Cmp, RawShmem, ShmemModule, SymPtr};

/// Graph parameters.
#[derive(Debug, Clone, Copy)]
pub struct G500Params {
    /// `2^scale` vertices.
    pub scale: u32,
    /// Edges = `edge_factor * 2^scale`.
    pub edge_factor: usize,
    /// Generator seed.
    pub seed: u64,
}

impl Default for G500Params {
    fn default() -> Self {
        G500Params {
            scale: 10,
            edge_factor: 16,
            seed: 0x0601_7003,
        }
    }
}

impl G500Params {
    /// Global vertex count.
    pub fn nvertices(&self) -> u64 {
        1 << self.scale
    }

    /// Global edge count.
    pub fn nedges(&self) -> usize {
        self.edge_factor << self.scale
    }
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Generates edge `index` of the Kronecker graph (deterministic).
/// R-MAT probabilities A=0.57, B=0.19, C=0.19, D=0.05 (Graph500 spec).
pub fn kronecker_edge(params: &G500Params, index: usize) -> (u64, u64) {
    let mut state = params
        .seed
        .wrapping_add((index as u64 + 1).wrapping_mul(0xff51_afd7_ed55_8ccd));
    let (mut u, mut v) = (0u64, 0u64);
    for _ in 0..params.scale {
        u <<= 1;
        v <<= 1;
        let r = (splitmix(&mut state) >> 11) as f64 / (1u64 << 53) as f64;
        if r < 0.57 {
            // quadrant A: (0, 0)
        } else if r < 0.76 {
            v |= 1; // B: (0, 1)
        } else if r < 0.95 {
            u |= 1; // C: (1, 0)
        } else {
            u |= 1;
            v |= 1; // D: (1, 1)
        }
    }
    (u, v)
}

/// The rank-local part of the distributed graph (CSR over owned vertices).
pub struct LocalGraph {
    /// Global vertex count.
    pub nglobal: u64,
    /// This rank.
    pub rank: usize,
    /// Rank count.
    pub nranks: usize,
    /// CSR offsets over owned vertices (local index `v / P`).
    pub offsets: Vec<usize>,
    /// Neighbor (global) vertex ids.
    pub adj: Vec<u64>,
}

impl LocalGraph {
    /// Owner rank of a global vertex.
    pub fn owner(&self, v: u64) -> usize {
        (v % self.nranks as u64) as usize
    }

    /// Local index of an owned global vertex.
    pub fn local_of(&self, v: u64) -> usize {
        (v / self.nranks as u64) as usize
    }

    /// Number of vertices owned by this rank.
    pub fn nowned(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Global id of local vertex `l`.
    pub fn global_of(&self, l: usize) -> u64 {
        l as u64 * self.nranks as u64 + self.rank as u64
    }

    /// Neighbors of owned local vertex `l`.
    pub fn neighbors(&self, l: usize) -> &[u64] {
        &self.adj[self.offsets[l]..self.offsets[l + 1]]
    }
}

/// Builds the distributed graph: each rank generates its share of edges and
/// exchanges endpoint records with the owners (construction is not timed in
/// the harness, matching the benchmark rules).
pub fn build_graph(comm: &RawComm, params: &G500Params) -> LocalGraph {
    let p = comm.nranks();
    let me = comm.rank();
    let total = params.nedges();
    let per = total.div_ceil(p);
    let lo = me * per;
    let hi = ((me + 1) * per).min(total);

    // Outgoing records: for edge (u,v), owner(u) gets (u,v) and owner(v)
    // gets (v,u); self-loops dropped.
    let mut outgoing: Vec<Vec<u64>> = vec![Vec::new(); p];
    for i in lo..hi {
        let (u, v) = kronecker_edge(params, i);
        if u == v {
            continue;
        }
        outgoing[(u % p as u64) as usize].extend_from_slice(&[u, v]);
        outgoing[(v % p as u64) as usize].extend_from_slice(&[v, u]);
    }
    let incoming = comm.alltoallv_vec::<u64>(outgoing);

    let nglobal = params.nvertices();
    let nowned = (nglobal as usize).div_ceil(p)
        - if !(nglobal as usize).is_multiple_of(p) && me >= nglobal as usize % p {
            1
        } else {
            0
        };
    // Dense local adjacency build.
    let mut lists: Vec<Vec<u64>> = vec![Vec::new(); nowned];
    for part in incoming {
        for pair in part.chunks_exact(2) {
            let (u, v) = (pair[0], pair[1]);
            debug_assert_eq!((u % p as u64) as usize, me);
            lists[(u / p as u64) as usize].push(v);
        }
    }
    let mut offsets = Vec::with_capacity(nowned + 1);
    let mut adj = Vec::new();
    offsets.push(0);
    for mut list in lists {
        list.sort_unstable();
        adj.append(&mut list);
        offsets.push(adj.len());
    }
    LocalGraph {
        nglobal,
        rank: me,
        nranks: p,
        offsets,
        adj,
    }
}

/// BFS output: per owned vertex, parent (u64::MAX = unreached) and level.
#[derive(Debug)]
pub struct BfsResult {
    /// Parent of each owned vertex (global id), `u64::MAX` if unreached.
    pub parent: Vec<u64>,
    /// BFS level of each owned vertex, `u32::MAX` if unreached.
    pub level: Vec<u32>,
    /// Edges relaxed (for TEPS).
    pub edges_relaxed: u64,
}

/// Mailbox arena in the symmetric heap: per source rank, a flag word and a
/// pair buffer. Allocated collectively.
pub struct MailArena {
    flags: SymPtr,
    bufs: Vec<SymPtr>,
    cap_pairs: usize,
}

impl MailArena {
    /// Collective allocation. `cap_pairs` bounds pairs sent by one source
    /// in one level (callers size it from the local adjacency maximum,
    /// allreduced).
    pub fn alloc(raw: &RawShmem, cap_pairs: usize) -> MailArena {
        let p = raw.nranks();
        let flags = raw.malloc64(p);
        let bufs = (0..p).map(|_| raw.malloc64(cap_pairs * 2)).collect();
        MailArena {
            flags,
            bufs,
            cap_pairs,
        }
    }

    fn reset(&self, raw: &RawShmem) {
        for s in 0..raw.nranks() {
            raw.heap().store_i64(self.flags.at64(s), -1);
        }
    }
}

/// Per-level send phase shared by both implementations: pack (vertex,
/// parent) pairs per owner and put them, then set the arrival flag.
fn send_discoveries(
    raw: &RawShmem,
    graph: &LocalGraph,
    arena: &MailArena,
    frontier: &[usize],
    edges_relaxed: &mut u64,
) {
    let p = graph.nranks;
    let me = graph.rank;
    let mut out: Vec<Vec<u64>> = vec![Vec::new(); p];
    for &l in frontier {
        let u = graph.global_of(l);
        for &v in graph.neighbors(l) {
            *edges_relaxed += 1;
            out[graph.owner(v)].extend_from_slice(&[v, u]);
        }
    }
    for (t, pairs) in out.into_iter().enumerate() {
        assert!(
            pairs.len() / 2 <= arena.cap_pairs,
            "mailbox overflow: {} pairs > cap {}",
            pairs.len() / 2,
            arena.cap_pairs
        );
        if !pairs.is_empty() {
            raw.put64(t, arena.bufs[me].offset, &pairs);
        }
        // FIFO per pair guarantees the data lands before the flag.
        raw.put64(t, arena.flags.at64(me), &[(pairs.len() / 2) as u64]);
    }
}

/// Applies one source's batch: claim unvisited vertices.
fn apply_batch(
    graph: &LocalGraph,
    parent: &mut [u64],
    level: &mut [u32],
    next: &mut Vec<usize>,
    depth: u32,
    pairs: &[u64],
) {
    for pair in pairs.chunks_exact(2) {
        let (v, from) = (pair[0], pair[1]);
        let l = graph.local_of(v);
        if parent[l] == u64::MAX {
            parent[l] = from;
            level[l] = depth;
            next.push(l);
        }
    }
}

fn read_batch(raw: &RawShmem, arena: &MailArena, src: usize, npairs: usize) -> Vec<u64> {
    let mut bytes = vec![0u8; npairs * 2 * 8];
    raw.heap().read_bytes(arena.bufs[src].offset, &mut bytes);
    hiper_netsim::pod::from_bytes(&bytes)
}

/// The reference implementation: manual polling of the arrival flags.
pub fn run_reference_polling(
    raw: &Arc<RawShmem>,
    graph: &LocalGraph,
    arena: &MailArena,
    root: u64,
) -> BfsResult {
    let p = graph.nranks;
    let mut parent = vec![u64::MAX; graph.nowned()];
    let mut level = vec![u32::MAX; graph.nowned()];
    let mut frontier: Vec<usize> = Vec::new();
    let mut edges_relaxed = 0u64;
    if graph.owner(root) == graph.rank {
        let l = graph.local_of(root);
        parent[l] = root;
        level[l] = 0;
        frontier.push(l);
    }

    let mut depth = 1u32;
    loop {
        arena.reset(raw);
        raw.barrier_all();
        send_discoveries(raw, graph, arena, &frontier, &mut edges_relaxed);
        // --- the polling loop the paper complains about ---
        let mut next = Vec::new();
        let mut seen = vec![false; p];
        let mut remaining = p;
        while remaining > 0 {
            for (s, seen_s) in seen.iter_mut().enumerate() {
                if !*seen_s {
                    let flag = raw.heap().load_i64(arena.flags.at64(s));
                    if flag >= 0 {
                        *seen_s = true;
                        remaining -= 1;
                        if flag > 0 {
                            let pairs = read_batch(raw, arena, s, flag as usize);
                            apply_batch(graph, &mut parent, &mut level, &mut next, depth, &pairs);
                        }
                    }
                }
            }
            // Polling burns the core; yield so the (shared) machine can
            // still deliver traffic — as a real NIC-polling loop would
            // relinquish the bus between probes.
            std::thread::yield_now();
        }
        raw.barrier_all();
        // Global termination: any next-frontier anywhere?
        let totals = raw.sum_to_all_u64(&[next.len() as u64]);
        if totals[0] == 0 {
            break;
        }
        frontier = next;
        depth += 1;
    }
    BfsResult {
        parent,
        level,
        edges_relaxed,
    }
}

/// The HiPER implementation: `shmem_async_when` tasks replace the polling
/// loop; each source's batch is processed the moment its flag lands.
pub fn run_hiper(
    shmem: &Arc<ShmemModule>,
    graph: &Arc<LocalGraph>,
    arena: &Arc<MailArena>,
    root: u64,
) -> BfsResult {
    let raw = Arc::clone(shmem.raw());
    let p = graph.nranks;
    let mut parent = vec![u64::MAX; graph.nowned()];
    let mut level = vec![u32::MAX; graph.nowned()];
    let mut frontier: Vec<usize> = Vec::new();
    let mut edges_relaxed = 0u64;
    if graph.owner(root) == graph.rank {
        let l = graph.local_of(root);
        parent[l] = root;
        level[l] = 0;
        frontier.push(l);
    }

    let mut depth = 1u32;
    loop {
        arena.reset(&raw);
        shmem.barrier_all();
        send_discoveries(&raw, graph, arena, &frontier, &mut edges_relaxed);

        // Claims are funneled through per-level shared state (parent vector,
        // level vector, next-frontier accumulator); each arrival batch is an
        // independent task released by shmem_async_when.
        type LevelClaims = (Vec<u64>, Vec<u32>, Vec<usize>);
        let claims: Arc<parking_lot::Mutex<LevelClaims>> = Arc::new(parking_lot::Mutex::new((
            std::mem::take(&mut parent),
            std::mem::take(&mut level),
            Vec::new(),
        )));
        api::finish(|| {
            for s in 0..p {
                let raw = Arc::clone(&raw);
                let graph = Arc::clone(graph);
                let arena = Arc::clone(arena);
                let claims = Arc::clone(&claims);
                // The novel API (§II-C2): execution predicated on the
                // remote put of the arrival flag.
                shmem.async_when(arena.flags.at64(s), Cmp::Ge, 0, move || {
                    let flag = raw.heap().load_i64(arena.flags.at64(s));
                    if flag > 0 {
                        let pairs = read_batch(&raw, &arena, s, flag as usize);
                        let mut guard = claims.lock();
                        let (parent, level, next) = &mut *guard;
                        apply_batch(&graph, parent, level, next, depth, &pairs);
                    }
                });
            }
        })
        .expect("no task panicked");
        let (par, lev, next) = {
            let mut guard = claims.lock();
            (
                std::mem::take(&mut guard.0),
                std::mem::take(&mut guard.1),
                std::mem::take(&mut guard.2),
            )
        };
        parent = par;
        level = lev;
        shmem.barrier_all();
        let totals = shmem.sum_to_all_u64(vec![next.len() as u64]);
        if totals[0] == 0 {
            break;
        }
        frontier = next;
        depth += 1;
    }
    BfsResult {
        parent,
        level,
        edges_relaxed,
    }
}

/// Serial BFS oracle over the full edge list (levels only).
pub fn serial_levels(params: &G500Params, root: u64) -> Vec<u32> {
    let n = params.nvertices() as usize;
    let mut adj: Vec<Vec<u64>> = vec![Vec::new(); n];
    for i in 0..params.nedges() {
        let (u, v) = kronecker_edge(params, i);
        if u != v {
            adj[u as usize].push(v);
            adj[v as usize].push(u);
        }
    }
    let mut level = vec![u32::MAX; n];
    let mut queue = std::collections::VecDeque::from([root]);
    level[root as usize] = 0;
    while let Some(u) = queue.pop_front() {
        for &v in &adj[u as usize] {
            if level[v as usize] == u32::MAX {
                level[v as usize] = level[u as usize] + 1;
                queue.push_back(v);
            }
        }
    }
    level
}

/// Picks the deterministic BFS root: the smallest vertex with nonzero
/// degree.
pub fn pick_root(params: &G500Params) -> u64 {
    let mut degree: HashMap<u64, u32> = HashMap::new();
    for i in 0..params.nedges() {
        let (u, v) = kronecker_edge(params, i);
        if u != v {
            *degree.entry(u).or_default() += 1;
            *degree.entry(v).or_default() += 1;
        }
    }
    (0..params.nvertices())
        .find(|v| degree.contains_key(v))
        .expect("graph has at least one edge")
}

/// Graph500-style validation of a distributed BFS result. Call on every
/// rank; checks this rank's owned vertices against the serial oracle and
/// the tree-edge rules.
pub fn validate(graph: &LocalGraph, result: &BfsResult, oracle_levels: &[u32], root: u64) -> bool {
    for l in 0..graph.nowned() {
        let v = graph.global_of(l);
        let expect = oracle_levels[v as usize];
        if result.level[l] != expect {
            eprintln!(
                "vertex {} level mismatch: got {}, oracle {}",
                v, result.level[l], expect
            );
            return false;
        }
        if expect == u32::MAX {
            if result.parent[l] != u64::MAX {
                return false;
            }
            continue;
        }
        if v == root {
            if result.parent[l] != root {
                return false;
            }
            continue;
        }
        // Tree edge must exist: parent is a graph neighbor, one level up.
        let par = result.parent[l];
        if !graph.neighbors(l).contains(&par) {
            eprintln!("vertex {}: parent {} is not a neighbor", v, par);
            return false;
        }
        if oracle_levels[par as usize] + 1 != expect {
            eprintln!("vertex {}: parent {} not one level up", v, par);
            return false;
        }
    }
    true
}

/// Computes the capacity (pairs per source per level) needed for the
/// mailboxes: the global max, over (source, target) pairs, of edges from
/// one source's vertices to one target.
pub fn mailbox_capacity(raw: &RawShmem, graph: &LocalGraph) -> usize {
    let mut per_target = vec![0u64; graph.nranks];
    for l in 0..graph.nowned() {
        for &v in graph.neighbors(l) {
            per_target[graph.owner(v)] += 1;
        }
    }
    let local_max = AtomicI64::new(*per_target.iter().max().unwrap_or(&0) as i64);
    let global = raw.max_to_all_i64(&[local_max.load(Ordering::Relaxed)]);
    (global[0].max(1) as usize) + 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use hiper_netsim::{NetConfig, SpmdBuilder};
    use hiper_runtime::SchedulerModule;
    use hiper_shmem::ShmemWorld;

    fn tiny() -> G500Params {
        G500Params {
            scale: 7,
            edge_factor: 8,
            seed: 0xBEEF,
        }
    }

    #[test]
    fn generator_is_deterministic() {
        let p = tiny();
        assert_eq!(kronecker_edge(&p, 0), kronecker_edge(&p, 0));
        assert_ne!(kronecker_edge(&p, 0), kronecker_edge(&p, 1));
        let (u, v) = kronecker_edge(&p, 5);
        assert!(u < p.nvertices() && v < p.nvertices());
    }

    #[test]
    fn serial_oracle_reaches_component() {
        let p = tiny();
        let root = pick_root(&p);
        let levels = serial_levels(&p, root);
        assert_eq!(levels[root as usize], 0);
        let reached = levels.iter().filter(|&&l| l != u32::MAX).count();
        assert!(reached > 1, "root is isolated");
    }

    fn run_distributed(nranks: usize, use_hiper: bool) {
        let params = tiny();
        let root = pick_root(&params);
        let oracle = Arc::new(serial_levels(&params, root));
        let world = ShmemWorld::new(nranks, 1 << 22);
        let oks = SpmdBuilder::new(nranks)
            .net(NetConfig::default())
            .workers_per_rank(2)
            .run(
                move |_r, t| {
                    let shmem = ShmemModule::new(world.clone(), t.clone());
                    let mpi = hiper_mpi::MpiModule::new(t);
                    (
                        vec![
                            Arc::clone(&shmem) as Arc<dyn SchedulerModule>,
                            Arc::clone(&mpi) as Arc<dyn SchedulerModule>,
                        ],
                        (shmem, mpi),
                    )
                },
                move |_env, (shmem, mpi)| {
                    let graph = Arc::new(build_graph(mpi.raw(), &params));
                    let cap = mailbox_capacity(shmem.raw(), &graph);
                    let arena = Arc::new(MailArena::alloc(shmem.raw(), cap));
                    let result = if use_hiper {
                        run_hiper(&shmem, &graph, &arena, root)
                    } else {
                        run_reference_polling(shmem.raw(), &graph, &arena, root)
                    };
                    validate(&graph, &result, &oracle, root)
                },
            );
        assert!(oks.into_iter().all(|ok| ok));
    }

    #[test]
    fn reference_bfs_matches_oracle() {
        run_distributed(3, false);
    }

    #[test]
    fn hiper_bfs_matches_oracle() {
        run_distributed(3, true);
    }

    #[test]
    fn single_rank_bfs() {
        run_distributed(1, true);
    }
}
