//! Typed convenience layer over the byte-oriented [`RawComm`].

use bytes::Bytes;
use hiper_netsim::pod::{from_bytes, to_bytes, Pod};
use hiper_netsim::Rank;

use crate::raw::RawComm;

/// Elementwise reduction operators for [`allreduce`](RawComm::allreduce)-style collectives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReduceOp {
    /// Elementwise sum.
    Sum,
    /// Elementwise minimum.
    Min,
    /// Elementwise maximum.
    Max,
}

/// Element types usable in typed reductions.
pub trait Reducible: Pod + PartialOrd {
    /// Applies `op` to a pair of elements.
    fn combine(op: ReduceOp, a: Self, b: Self) -> Self;
}

macro_rules! impl_reducible {
    ($($t:ty),*) => {$(
        impl Reducible for $t {
            fn combine(op: ReduceOp, a: Self, b: Self) -> Self {
                match op {
                    ReduceOp::Sum => a + b,
                    ReduceOp::Min => if b < a { b } else { a },
                    ReduceOp::Max => if b > a { b } else { a },
                }
            }
        }
    )*};
}

impl_reducible!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f32, f64);

fn combine_bytes<T: Reducible>(op: ReduceOp) -> impl Fn(&[u8], &[u8]) -> Bytes {
    move |a, b| {
        let mut av: Vec<T> = from_bytes(a);
        let bv: Vec<T> = from_bytes(b);
        assert_eq!(av.len(), bv.len(), "reduction length mismatch");
        for (x, y) in av.iter_mut().zip(bv) {
            *x = T::combine(op, *x, y);
        }
        to_bytes(&av)
    }
}

impl RawComm {
    /// Typed blocking send.
    pub fn send_slice<T: Pod>(&self, dst: Rank, tag: u64, data: &[T]) {
        self.send(dst, tag, to_bytes(data));
    }

    /// Typed blocking receive; returns (elements, src, tag).
    pub fn recv_vec<T: Pod>(&self, src: Option<Rank>, tag: Option<u64>) -> (Vec<T>, Rank, u64) {
        let status = self.recv(src, tag);
        (from_bytes(&status.data), status.src, status.tag)
    }

    /// Typed elementwise allreduce.
    pub fn allreduce<T: Reducible>(&self, data: &[T], op: ReduceOp) -> Vec<T> {
        let out = self.allreduce_bytes(to_bytes(data), &combine_bytes::<T>(op));
        from_bytes(&out)
    }

    /// Typed elementwise reduce to rank 0.
    pub fn reduce<T: Reducible>(&self, data: &[T], op: ReduceOp) -> Option<Vec<T>> {
        self.reduce_bytes(to_bytes(data), &combine_bytes::<T>(op))
            .map(|b| from_bytes(&b))
    }

    /// Typed broadcast from `root`.
    pub fn bcast_vec<T: Pod>(&self, root: Rank, data: &[T]) -> Vec<T> {
        from_bytes(&self.bcast(root, to_bytes(data)))
    }

    /// Typed allgather (one element slice per rank, concatenated per rank).
    pub fn allgather_vec<T: Pod>(&self, data: &[T]) -> Vec<Vec<T>> {
        self.allgather(to_bytes(data))
            .into_iter()
            .map(|b| from_bytes(&b))
            .collect()
    }

    /// Typed alltoall: `parts[d]` is sent to rank `d`.
    pub fn alltoall_vec<T: Pod>(&self, parts: Vec<Vec<T>>) -> Vec<Vec<T>> {
        self.alltoall(parts.iter().map(|p| to_bytes(p)).collect())
            .into_iter()
            .map(|b| from_bytes(&b))
            .collect()
    }

    /// Typed alltoallv (variable sizes per destination).
    pub fn alltoallv_vec<T: Pod>(&self, parts: Vec<Vec<T>>) -> Vec<Vec<T>> {
        self.alltoallv(parts.iter().map(|p| to_bytes(p)).collect())
            .into_iter()
            .map(|b| from_bytes(&b))
            .collect()
    }

    /// Typed exclusive scan with `op` (rank r gets the combination over
    /// ranks 0..r; rank 0 gets `identity`).
    pub fn exscan<T: Reducible>(&self, data: &[T], identity: &[T], op: ReduceOp) -> Vec<T> {
        let out = self.exscan_bytes(to_bytes(data), to_bytes(identity), &combine_bytes::<T>(op));
        from_bytes(&out)
    }
}
