//! Collection strategies (`collection::vec`, `collection::btree_map`).

use std::collections::BTreeMap;
use std::ops::Range;

use crate::rng::TestRng;
use crate::strategy::Strategy;

/// Strategy for `Vec`s of `elem` with a length drawn from `len`.
pub fn vec<S: Strategy>(elem: S, len: Range<usize>) -> VecStrategy<S> {
    VecStrategy { elem, len }
}

/// The result of [`vec()`].
#[derive(Debug, Clone)]
pub struct VecStrategy<S> {
    elem: S,
    len: Range<usize>,
}

impl<S: Strategy> Strategy for VecStrategy<S> {
    type Value = Vec<S::Value>;
    fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
        let n = rng.range_u64(self.len.start as u64, self.len.end as u64) as usize;
        (0..n).map(|_| self.elem.generate(rng)).collect()
    }
}

/// Strategy for `BTreeMap`s with `size` entries drawn from `key` / `value`.
/// Duplicate generated keys collapse, so the final size may be smaller.
pub fn btree_map<K: Strategy, V: Strategy>(
    key: K,
    value: V,
    size: Range<usize>,
) -> BTreeMapStrategy<K, V> {
    BTreeMapStrategy { key, value, size }
}

/// The result of [`btree_map`].
#[derive(Debug, Clone)]
pub struct BTreeMapStrategy<K, V> {
    key: K,
    value: V,
    size: Range<usize>,
}

impl<K, V> Strategy for BTreeMapStrategy<K, V>
where
    K: Strategy,
    K::Value: Ord,
    V: Strategy,
{
    type Value = BTreeMap<K::Value, V::Value>;
    fn generate(&self, rng: &mut TestRng) -> BTreeMap<K::Value, V::Value> {
        let n = rng.range_u64(self.size.start as u64, self.size.end as u64) as usize;
        (0..n)
            .map(|_| (self.key.generate(rng), self.value.generate(rng)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vec_lengths_in_range() {
        let mut r = TestRng::deterministic("vec-len");
        let s = vec(0u32..10, 2..6);
        for _ in 0..100 {
            let v = s.generate(&mut r);
            assert!((2..6).contains(&v.len()));
            assert!(v.iter().all(|x| *x < 10));
        }
    }

    #[test]
    fn btree_map_bounded() {
        let mut r = TestRng::deterministic("map-size");
        let s = btree_map(0u32..100, "[a-z]{1,4}", 0..8);
        for _ in 0..50 {
            let m = s.generate(&mut r);
            assert!(m.len() < 8);
        }
    }
}
