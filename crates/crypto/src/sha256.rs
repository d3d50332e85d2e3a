//! SHA-256 (FIPS 180-4).
//!
//! Used throughout Veil for launch measurement of the CVM boot image (§5.1),
//! enclave measurement for remote attestation (§6.2), and as the compression
//! function inside [`crate::hmac`].
//!
//! The block function hashes whole blocks straight from the caller's slice,
//! keeps a rolling 16-word message schedule, and unrolls its 64 rounds so
//! that the working variables are renamed rather than moved; `finalize`
//! pads in place. None of that changes a digest: the FIPS 180-4 vectors
//! below, and a differential property against the plain implementation,
//! pin every output.

/// Size of a SHA-256 digest in bytes.
pub const DIGEST_LEN: usize = 32;

/// Size of an internal SHA-256 block in bytes.
pub const BLOCK_LEN: usize = 64;

const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Incremental SHA-256 hasher.
///
/// # Example
///
/// ```
/// use veil_crypto::sha256::Sha256;
///
/// let mut h = Sha256::new();
/// h.update(b"ve");
/// h.update(b"il");
/// assert_eq!(h.finalize(), Sha256::digest(b"veil"));
/// ```
#[derive(Debug, Clone)]
pub struct Sha256 {
    state: [u32; 8],
    buf: [u8; BLOCK_LEN],
    buf_len: usize,
    total_len: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Creates a fresh hasher.
    pub fn new() -> Self {
        Sha256 { state: H0, buf: [0u8; BLOCK_LEN], buf_len: 0, total_len: 0 }
    }

    /// One-shot digest of `data`.
    pub fn digest(data: &[u8]) -> [u8; DIGEST_LEN] {
        let mut h = Self::new();
        h.update(data);
        h.finalize()
    }

    /// Absorbs `data` into the hash state.
    pub fn update(&mut self, mut data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        if self.buf_len > 0 {
            let take = (BLOCK_LEN - self.buf_len).min(data.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
            self.buf_len += take;
            if self.buf_len < BLOCK_LEN {
                return;
            }
            compress(&mut self.state, &self.buf);
            data = &data[take..];
        }
        // Whole blocks are compressed where they lie; only the tail is
        // buffered.
        let (blocks, tail) = data.split_at(data.len() - data.len() % BLOCK_LEN);
        compress(&mut self.state, blocks);
        self.buf[..tail.len()].copy_from_slice(tail);
        self.buf_len = tail.len();
    }

    /// Completes the hash, returning the 32-byte digest.
    pub fn finalize(mut self) -> [u8; DIGEST_LEN] {
        // Padding: 0x80, zeros, and the 64-bit big-endian bit length in the
        // last 8 bytes of a block, one block further on if 0x80 took them.
        let n = self.buf_len;
        self.buf[n] = 0x80;
        self.buf[n + 1..].fill(0);
        if n >= BLOCK_LEN - 8 {
            compress(&mut self.state, &self.buf);
            self.buf = [0; BLOCK_LEN];
        }
        self.buf[BLOCK_LEN - 8..].copy_from_slice(&self.total_len.wrapping_mul(8).to_be_bytes());
        compress(&mut self.state, &self.buf);
        let mut out = [0u8; DIGEST_LEN];
        for (bytes, word) in out.chunks_exact_mut(4).zip(self.state) {
            bytes.copy_from_slice(&word.to_be_bytes());
        }
        out
    }
}

/// Round `$i` on the working variables, named in rotated order: only `d`
/// and `h` are written, and the next round passes `h` as its `a`, so no
/// value moves between rounds.
macro_rules! round {
    ($a:ident, $b:ident, $c:ident, $d:ident, $e:ident, $f:ident, $g:ident, $h:ident, $i:expr, $w:expr) => {{
        let t1 = $h
            .wrapping_add($e.rotate_right(6) ^ $e.rotate_right(11) ^ $e.rotate_right(25))
            .wrapping_add($g ^ ($e & ($f ^ $g)))
            .wrapping_add(K[$i])
            .wrapping_add($w);
        $d = $d.wrapping_add(t1);
        $h = t1
            .wrapping_add($a.rotate_right(2) ^ $a.rotate_right(13) ^ $a.rotate_right(22))
            .wrapping_add(($a & $b) | ($c & ($a | $b)));
    }};
}

/// Compresses each whole 64-byte block of `blocks` into `state`.
fn compress(state: &mut [u32; 8], blocks: &[u8]) {
    for block in blocks.chunks_exact(BLOCK_LEN) {
        let mut w = [0u32; 16];
        for (word, bytes) in w.iter_mut().zip(block.chunks_exact(4)) {
            *word = u32::from_be_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
        // The schedule rolls over 16 words: round i >= 16 overwrites the
        // word of round i - 16, the last round to read it.
        macro_rules! load {
            ($i:expr) => {
                w[$i]
            };
        }
        macro_rules! expand {
            ($i:expr) => {{
                let (w15, w2) = (w[($i + 1) & 15], w[($i + 14) & 15]);
                w[$i & 15] = w[$i & 15]
                    .wrapping_add(w15.rotate_right(7) ^ w15.rotate_right(18) ^ (w15 >> 3))
                    .wrapping_add(w[($i + 9) & 15])
                    .wrapping_add(w2.rotate_right(17) ^ w2.rotate_right(19) ^ (w2 >> 10));
                w[$i & 15]
            }};
        }
        // Eight rounds bring the names back to where they started.
        macro_rules! eight_rounds {
            ($i:expr, $w:ident) => {
                round!(a, b, c, d, e, f, g, h, $i, $w!($i));
                round!(h, a, b, c, d, e, f, g, $i + 1, $w!($i + 1));
                round!(g, h, a, b, c, d, e, f, $i + 2, $w!($i + 2));
                round!(f, g, h, a, b, c, d, e, $i + 3, $w!($i + 3));
                round!(e, f, g, h, a, b, c, d, $i + 4, $w!($i + 4));
                round!(d, e, f, g, h, a, b, c, $i + 5, $w!($i + 5));
                round!(c, d, e, f, g, h, a, b, $i + 6, $w!($i + 6));
                round!(b, c, d, e, f, g, h, a, $i + 7, $w!($i + 7));
            };
        }
        eight_rounds!(0, load);
        eight_rounds!(8, load);
        eight_rounds!(16, expand);
        eight_rounds!(24, expand);
        eight_rounds!(32, expand);
        eight_rounds!(40, expand);
        eight_rounds!(48, expand);
        eight_rounds!(56, expand);
        for (s, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
            *s = s.wrapping_add(v);
        }
    }
}

/// Formats a digest as lowercase hex, e.g. for log output and test vectors.
pub fn hex(digest: &[u8]) -> String {
    digest.iter().map(|b| format!("{b:02x}")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    // FIPS 180-4 / NIST CAVP known-answer tests.
    #[test]
    fn empty_string() {
        assert_eq!(
            hex(&Sha256::digest(b"")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
    }

    #[test]
    fn abc() {
        assert_eq!(
            hex(&Sha256::digest(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[test]
    fn two_block_message() {
        assert_eq!(
            hex(&Sha256::digest(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn million_a() {
        let mut h = Sha256::new();
        let chunk = [b'a'; 1000];
        for _ in 0..1000 {
            h.update(&chunk);
        }
        assert_eq!(
            hex(&h.finalize()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn incremental_matches_oneshot_at_every_split() {
        let data: Vec<u8> = (0..257u16).map(|i| (i % 251) as u8).collect();
        let want = Sha256::digest(&data);
        for split in 0..data.len() {
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), want, "split at {split}");
        }
    }

    #[test]
    fn exactly_block_sized_inputs() {
        // 55/56/63/64/65 bytes hit all padding branches.
        for n in [55usize, 56, 63, 64, 65, 119, 120, 127, 128] {
            let data = vec![0xabu8; n];
            let mut h = Sha256::new();
            for b in &data {
                h.update(std::slice::from_ref(b));
            }
            assert_eq!(h.finalize(), Sha256::digest(&data), "len {n}");
        }
    }
}
