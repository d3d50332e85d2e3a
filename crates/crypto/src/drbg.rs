//! Deterministic random bit generator built on ChaCha20.
//!
//! The simulation must be reproducible, so every component that needs
//! randomness (key generation, nonce derivation, workload inputs that feed
//! crypto) pulls from a seeded [`Drbg`] rather than the OS entropy pool.

use crate::chacha20::ChaCha20;
use crate::sha256::Sha256;

/// A ChaCha20-based DRBG in counter mode.
///
/// # Example
///
/// ```
/// use veil_crypto::drbg::Drbg;
///
/// let mut a = Drbg::from_seed(b"attestation entropy");
/// let mut b = Drbg::from_seed(b"attestation entropy");
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Debug, Clone)]
pub struct Drbg {
    cipher: ChaCha20,
    nonce: [u8; 12],
    counter: u32,
    buf: [u8; 64],
    buf_used: usize,
}

impl Drbg {
    /// Creates a DRBG whose key is the SHA-256 of `seed`.
    pub fn from_seed(seed: &[u8]) -> Self {
        let key = Sha256::digest(seed);
        Drbg {
            cipher: ChaCha20::new(&key),
            nonce: [0u8; 12],
            counter: 0,
            buf: [0u8; 64],
            buf_used: 64, // force refill on first use
        }
    }

    fn refill(&mut self) {
        self.buf = self.cipher.block(&self.nonce, self.counter);
        self.counter = self.counter.wrapping_add(1);
        if self.counter == 0 {
            // Extremely long streams roll the nonce forward.
            for b in self.nonce.iter_mut() {
                *b = b.wrapping_add(1);
                if *b != 0 {
                    break;
                }
            }
        }
        self.buf_used = 0;
    }

    /// Fills `out` with pseudo-random bytes.
    pub fn fill(&mut self, out: &mut [u8]) {
        let mut done = 0;
        while done < out.len() {
            if self.buf_used == 64 {
                self.refill();
            }
            let n = (out.len() - done).min(64 - self.buf_used);
            out[done..done + n].copy_from_slice(&self.buf[self.buf_used..self.buf_used + n]);
            self.buf_used += n;
            done += n;
        }
    }

    /// Returns 32 pseudo-random bytes (e.g. a key or seed).
    pub fn next_bytes32(&mut self) -> [u8; 32] {
        let mut out = [0u8; 32];
        self.fill(&mut out);
        out
    }

    /// Returns the next pseudo-random u64.
    pub fn next_u64(&mut self) -> u64 {
        let mut b = [0u8; 8];
        self.fill(&mut b);
        u64::from_le_bytes(b)
    }

    /// Returns a pseudo-random value in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    pub fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        // Rejection sampling to avoid modulo bias.
        let zone = u64::MAX - (u64::MAX % bound);
        loop {
            let v = self.next_u64();
            if v < zone {
                return v % bound;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic() {
        let mut a = Drbg::from_seed(b"x");
        let mut b = Drbg::from_seed(b"x");
        let mut buf_a = [0u8; 100];
        let mut buf_b = [0u8; 100];
        a.fill(&mut buf_a);
        b.fill(&mut buf_b);
        assert_eq!(buf_a, buf_b);

        // The stream does not depend on how it is split: pieces that
        // straddle 64-byte block boundaries, one whole fill and 8-byte
        // `next_u64` words all read the same bytes.
        let mut whole = [0u8; 1200];
        Drbg::from_seed(b"x").fill(&mut whole);
        let mut pieces = [0u8; 1200];
        let mut d = Drbg::from_seed(b"x");
        let mut at = 0;
        for len in [1, 3, 63, 64, 65, 1000].into_iter().cycle() {
            let end = (at + len).min(pieces.len());
            d.fill(&mut pieces[at..end]);
            at = end;
            if at == pieces.len() {
                break;
            }
        }
        assert_eq!(pieces, whole);
        let mut d = Drbg::from_seed(b"x");
        let words: Vec<u8> =
            (0..whole.len() / 8).flat_map(|_| d.next_u64().to_le_bytes()).collect();
        assert_eq!(words, whole);

        // Known answer: the head of the GZip workload's input stream.
        let mut head = [0u8; 16];
        Drbg::from_seed(b"gzip-input").fill(&mut head);
        assert_eq!(head, 0x911e31f8809b4ddd1216a89c5c2d0669u128.to_be_bytes());
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = Drbg::from_seed(b"x");
        let mut b = Drbg::from_seed(b"y");
        assert_ne!(a.next_bytes32(), b.next_bytes32());
    }

    #[test]
    fn next_below_in_range() {
        let mut d = Drbg::from_seed(b"range");
        for bound in [1u64, 2, 3, 10, 1000, u64::MAX / 2] {
            for _ in 0..50 {
                assert!(d.next_below(bound) < bound);
            }
        }
    }

    #[test]
    fn stream_is_not_constant() {
        let mut d = Drbg::from_seed(b"stream");
        let a = d.next_u64();
        let b = d.next_u64();
        assert_ne!(a, b);
    }

    #[test]
    fn bytes_look_balanced() {
        // Crude sanity: over 64 KiB the ones-density should be near 50%.
        let mut d = Drbg::from_seed(b"balance");
        let mut buf = vec![0u8; 65536];
        d.fill(&mut buf);
        let ones: u64 = buf.iter().map(|b| b.count_ones() as u64).sum();
        let total = (buf.len() * 8) as f64;
        let density = ones as f64 / total;
        assert!((0.49..0.51).contains(&density), "density {density}");
    }
}
