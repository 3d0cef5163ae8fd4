//! The tree collectives both communication libraries run (dissemination
//! barrier, binomial broadcast and reduce), written once over a
//! [`CollLink`]: each library lends its own tag encoding and receive path.
//! All ranks call a collective with the same `seq` (its call-order number).

use bytes::Bytes;

use crate::Rank;

/// Opcode of [`barrier`] messages. The libraries number their other
/// collectives from 4 up.
pub const BARRIER: u8 = 1;
/// Opcode of [`bcast`] messages.
pub const BCAST: u8 = 2;
/// Opcode of [`reduce`] messages.
pub const REDUCE: u8 = 3;

/// The point-to-point calls a library lends its collectives.
pub trait CollLink {
    /// Sends step `round` of collective `op` number `seq` to `dst`.
    fn coll_send(&self, dst: Rank, op: u8, round: u8, seq: u64, data: Bytes);
    /// Blocks until step `round` of collective `op` number `seq` arrives
    /// from `src`, and returns its payload.
    fn coll_recv(&self, src: Rank, op: u8, round: u8, seq: u64) -> Bytes;
}

/// Dissemination barrier over ranks `0..p`: log2(p) rounds.
pub fn barrier(link: &impl CollLink, me: Rank, p: usize, seq: u64) {
    let mut round = 0u8;
    let mut dist = 1usize;
    while dist < p {
        link.coll_send((me + dist) % p, BARRIER, round, seq, Bytes::new());
        let _ = link.coll_recv((me + p - dist) % p, BARRIER, round, seq);
        dist <<= 1;
        round += 1;
    }
}

/// Binomial-tree broadcast from `root`; returns the payload on every rank
/// (`data` is ignored on non-roots).
pub fn bcast(link: &impl CollLink, me: Rank, p: usize, seq: u64, root: Rank, data: Bytes) -> Bytes {
    let rel = (me + p - root) % p;
    let mut buf = data;
    let mut mask = 1usize;
    while mask < p {
        if rel & mask != 0 {
            buf = link.coll_recv((me + p - mask) % p, BCAST, 0, seq);
            break;
        }
        mask <<= 1;
    }
    mask >>= 1;
    while mask > 0 {
        if rel + mask < p {
            link.coll_send((me + mask) % p, BCAST, 0, seq, buf.clone());
        }
        mask >>= 1;
    }
    buf
}

/// Binomial-tree reduction to rank 0 with `combine`; returns
/// `Some(result)` on rank 0, `None` elsewhere.
pub fn reduce(
    link: &impl CollLink,
    me: Rank,
    p: usize,
    seq: u64,
    mine: Bytes,
    combine: &dyn Fn(&[u8], &[u8]) -> Bytes,
) -> Option<Bytes> {
    let mut acc = mine;
    let mut mask = 1usize;
    while mask < p {
        if me & mask != 0 {
            link.coll_send(me - mask, REDUCE, 0, seq, acc);
            return None;
        }
        let src = me + mask;
        if src < p {
            acc = combine(&acc, &link.coll_recv(src, REDUCE, 0, seq));
        }
        mask <<= 1;
    }
    Some(acc)
}
