//! SHA-1, from scratch.
//!
//! The reference UTS benchmark derives each tree node's random state by
//! hashing its parent's 20-byte descriptor with SHA-1 — the tree is a
//! deterministic function of the root seed regardless of execution order,
//! which is what makes distributed work-stealing verifiable. This module
//! reimplements SHA-1 (RFC 3174) so our UTS generates trees the same way.
//!
//! Not for cryptographic use; it exists for workload fidelity.

/// Output digest size in bytes.
pub const DIGEST_LEN: usize = 20;

const H0: [u32; 5] = [0x67452301, 0xEFCDAB89, 0x98BADCFE, 0x10325476, 0xC3D2E1F0];

/// Twenty rounds `range` with round constant `k` and round function `f`.
/// The message schedule is the usual 16-word circular buffer: from round 16
/// on, `w[i % 16]` is replaced by its successor before it is used.
#[inline(always)]
fn rounds(
    v: &mut [u32; 5],
    w: &mut [u32; 16],
    range: std::ops::Range<usize>,
    k: u32,
    f: impl Fn(u32, u32, u32) -> u32,
) {
    let [mut a, mut b, mut c, mut d, mut e] = *v;
    for i in range {
        if i >= 16 {
            w[i & 15] =
                (w[(i + 13) & 15] ^ w[(i + 8) & 15] ^ w[(i + 2) & 15] ^ w[i & 15]).rotate_left(1);
        }
        let tmp = a
            .rotate_left(5)
            .wrapping_add(f(b, c, d))
            .wrapping_add(e)
            .wrapping_add(k)
            .wrapping_add(w[i & 15]);
        e = d;
        d = c;
        c = b.rotate_left(30);
        b = a;
        a = tmp;
    }
    *v = [a, b, c, d, e];
}

/// Folds one 64-byte block (as 16 big-endian words) into the state `h`.
#[inline]
fn compress(h: &mut [u32; 5], mut w: [u32; 16]) {
    let mut v = *h;
    rounds(&mut v, &mut w, 0..20, 0x5A827999, |b, c, d| {
        (b & c) | (!b & d)
    });
    rounds(&mut v, &mut w, 20..40, 0x6ED9EBA1, |b, c, d| b ^ c ^ d);
    rounds(&mut v, &mut w, 40..60, 0x8F1BBCDC, |b, c, d| {
        (b & c) | (b & d) | (c & d)
    });
    rounds(&mut v, &mut w, 60..80, 0xCA62C1D6, |b, c, d| b ^ c ^ d);
    for (hi, vi) in h.iter_mut().zip(v) {
        *hi = hi.wrapping_add(vi);
    }
}

fn block_words(block: &[u8]) -> [u32; 16] {
    let mut w = [0u32; 16];
    for (wi, bytes) in w.iter_mut().zip(block.chunks_exact(4)) {
        *wi = u32::from_be_bytes(bytes.try_into().expect("4-byte chunk"));
    }
    w
}

fn digest_bytes(h: &[u32; 5]) -> [u8; DIGEST_LEN] {
    let mut out = [0u8; DIGEST_LEN];
    for (bytes, word) in out.chunks_exact_mut(4).zip(h) {
        bytes.copy_from_slice(&word.to_be_bytes());
    }
    out
}

/// Computes the SHA-1 digest of `data`.
pub fn sha1(data: &[u8]) -> [u8; DIGEST_LEN] {
    let mut h = H0;
    let mut blocks = data.chunks_exact(64);
    for block in &mut blocks {
        compress(&mut h, block_words(block));
    }
    // Padding: rest || 0x80 || zeros || 64-bit bit length, in one block, or
    // two when fewer than 8 bytes are left after the 0x80.
    let rest = blocks.remainder();
    let mut tail = [0u8; 128];
    tail[..rest.len()].copy_from_slice(rest);
    tail[rest.len()] = 0x80;
    let tail_len = if rest.len() < 56 { 64 } else { 128 };
    tail[tail_len - 8..tail_len].copy_from_slice(&((data.len() as u64) * 8).to_be_bytes());
    for block in tail[..tail_len].chunks_exact(64) {
        compress(&mut h, block_words(block));
    }
    digest_bytes(&h)
}

/// Child-descriptor derivation as in UTS: hash of (parent descriptor,
/// big-endian child index). The 24-byte message and its padding fill
/// exactly one block, built in place as words: no buffer, no allocation.
pub fn uts_child(parent: &[u8; DIGEST_LEN], child_index: u32) -> [u8; DIGEST_LEN] {
    let mut w = [0u32; 16];
    for (wi, bytes) in w.iter_mut().zip(parent.chunks_exact(4)) {
        *wi = u32::from_be_bytes(bytes.try_into().expect("4-byte chunk"));
    }
    w[5] = child_index;
    w[6] = 0x8000_0000;
    w[15] = (DIGEST_LEN as u32 + 4) * 8;
    let mut h = H0;
    compress(&mut h, w);
    digest_bytes(&h)
}

/// Root descriptor from an integer seed (UTS hashes the seed string).
pub fn uts_root(seed: u32) -> [u8; DIGEST_LEN] {
    sha1(&seed.to_be_bytes())
}

/// Interprets the first 4 descriptor bytes as a uniform value in [0, 1).
pub fn descriptor_to_unit(desc: &[u8; DIGEST_LEN]) -> f64 {
    let v = u32::from_be_bytes(desc[..4].try_into().unwrap());
    v as f64 / (u32::MAX as f64 + 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(digest: &[u8]) -> String {
        digest.iter().map(|b| format!("{:02x}", b)).collect()
    }

    /// RFC 3174 / FIPS 180-1 test vectors.
    #[test]
    fn known_vectors() {
        assert_eq!(
            hex(&sha1(b"abc")),
            "a9993e364706816aba3e25717850c26c9cd0d89d"
        );
        assert_eq!(
            hex(&sha1(
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
            )),
            "84983e441c3bd26ebaae4aa1f95129e5e54670f1"
        );
        assert_eq!(hex(&sha1(b"")), "da39a3ee5e6b4b0d3255bfef95601890afd80709");
        // One-million 'a's (streaming not needed; build the buffer).
        let million = vec![b'a'; 1_000_000];
        assert_eq!(
            hex(&sha1(&million)),
            "34aa973cd4c4daa4f61eeb2bdbad27316534016f"
        );
    }

    #[test]
    fn boundary_lengths() {
        // Lengths around the 55/56/64-byte padding boundaries must not
        // panic and must differ.
        let digests: Vec<String> = (50..70).map(|n| hex(&sha1(&vec![0x5a; n]))).collect();
        for w in digests.windows(2) {
            assert_ne!(w[0], w[1]);
        }
    }

    /// Digests recorded from the heap-padding implementation this one
    /// replaced, at the lengths where the padding changes shape: 55 is the
    /// longest one-block message, 56 and 64 spill the length into a second
    /// block, 119 and 120 do the same after one full block.
    #[test]
    fn padding_boundaries_match_the_recorded_digests() {
        for (len, expected) in [
            (55, "55b80d96c523566d3c8a3b8de03a5549fd04915c"),
            (56, "bfe3466cd0dcd5e29b11e7885010fa7c61b737a6"),
            (64, "eece723b8a411e8c53e7bf49514234da5d394236"),
            (119, "791fa3ef300032b7b8efab39b22dead4327cba55"),
            (120, "856ffb270b6b9340b620653753dfc5bafaff0a1f"),
        ] {
            assert_eq!(hex(&sha1(&vec![0x5a; len])), expected, "length {len}");
        }
    }

    #[test]
    fn uts_child_equals_the_generic_hash_of_parent_and_index() {
        // xorshift64: descriptors and indices with no structure.
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for _ in 0..1000 {
            let mut parent = [0u8; DIGEST_LEN];
            for chunk in parent.chunks_mut(8) {
                chunk.copy_from_slice(&next().to_le_bytes()[..chunk.len()]);
            }
            let index = next() as u32;
            let mut message = [0u8; DIGEST_LEN + 4];
            message[..DIGEST_LEN].copy_from_slice(&parent);
            message[DIGEST_LEN..].copy_from_slice(&index.to_be_bytes());
            assert_eq!(uts_child(&parent, index), sha1(&message));
        }
    }

    #[test]
    fn child_derivation_is_deterministic_and_distinct() {
        let root = uts_root(42);
        let c0 = uts_child(&root, 0);
        let c1 = uts_child(&root, 1);
        assert_eq!(c0, uts_child(&root, 0));
        assert_ne!(c0, c1);
        assert_ne!(c0, root);
    }

    #[test]
    fn unit_interval_mapping() {
        let root = uts_root(7);
        let u = descriptor_to_unit(&root);
        assert!((0.0..1.0).contains(&u));
        // Different descriptors map to different units (overwhelmingly).
        let u2 = descriptor_to_unit(&uts_child(&root, 0));
        assert_ne!(u, u2);
    }
}
