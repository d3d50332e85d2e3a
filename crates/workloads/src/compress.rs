//! LZ77 compression engine + the GZip and 7-Zip workloads.
//!
//! A real hash-chain LZ77 compressor/decompressor (greedy matching,
//! 32 KiB window) — the compute kernel behind two of the paper's
//! programs: GZip (Fig. 5/Table 4: "compressed a 10 MB file generated
//! using /dev/urandom") and 7-Zip (Fig. 6/Table 5: `pts/compress-7zip`).

use crate::driver::Driver;
use crate::{fnv1a, Workload, WorkloadStats};
use veil_crypto::Drbg;
use veil_os::error::Errno;
use veil_os::sys::OpenFlags;

const WINDOW: usize = 32 * 1024;
const MIN_MATCH: usize = 4;
const MAX_MATCH: usize = 255;
const HASH_BITS: usize = 15;
/// Chain candidates examined per position.
const MAX_CHAIN: usize = 32;
/// Offset of a position stored in the hash tables. The empty slot (0)
/// then reads as a position more than [`WINDOW`] back, so one bound test
/// per candidate covers both "no candidate" and "expired candidate".
const BIAS: usize = WINDOW + 1;
/// The key-mask half of an [`Lz77`] `head` entry.
const MASK_HALF: u64 = !(u32::MAX as u64);

fn load_u32(data: &[u8], i: usize) -> u32 {
    u32::from_le_bytes(data[i..i + 4].try_into().expect("a 4-byte slice"))
}

fn hash4(v: u32) -> usize {
    (v.wrapping_mul(2654435761) >> (32 - HASH_BITS)) as usize
}

/// The key-mask bit of the 4-byte key `v`: one of a `head` entry's high
/// 32 bits, picked by the top 5 bits of a second multiplicative hash, so
/// the keys that share a [`hash4`] bucket spread over the mask.
fn key_bit(v: u32) -> u64 {
    1 << (32 + (v.wrapping_mul(0xcc9e_2d51) >> 27))
}

/// Length of the common prefix of two equal-length slices, compared
/// 8 bytes at a time.
fn common_prefix(a: &[u8], b: &[u8]) -> usize {
    let word = |c: &[u8]| u64::from_le_bytes(c.try_into().expect("an 8-byte chunk"));
    let mut l = 0;
    for (x, y) in a.chunks_exact(8).zip(b.chunks_exact(8)) {
        let diff = word(x) ^ word(y);
        if diff != 0 {
            return l + (diff.trailing_zeros() / 8) as usize;
        }
        l += 8;
    }
    l + a[l..].iter().zip(&b[l..]).take_while(|(x, y)| x == y).count()
}

/// Appends `run` as literal tokens of at most 255 bytes each.
fn emit_literals(out: &mut Vec<u8>, run: &[u8]) {
    for chunk in run.chunks(255) {
        out.push(0x00);
        out.push(chunk.len() as u8);
        out.extend_from_slice(chunk);
    }
}

/// Puts position `j`, whose 4 bytes are `key`, at the front of its
/// bucket's chain and sets its key bit in the bucket's mask. Returns the
/// bucket's entry from before.
fn insert(head: &mut [u64], prev: &mut [u32], j: usize, key: u32) -> u64 {
    let entry = &mut head[hash4(key)];
    let old = *entry;
    prev[j] = old as u32;
    *entry = (old | key_bit(key)) & MASK_HALF | (j + BIAS) as u64;
    old
}

/// The first longest match for position `i` among the chain that starts
/// at the biased position `candidate`, as `(len, dist)`. `key` holds the
/// 4 bytes at `i`, which the caller guarantees exist. The length is 0
/// when no candidate shares the key, and at least `MIN_MATCH` otherwise.
fn longest_match(
    data: &[u8],
    prev: &[u32],
    i: usize,
    mut candidate: usize,
    key: u32,
) -> (usize, usize) {
    let max = MAX_MATCH.min(data.len() - i);
    let (mut best_len, mut best_dist) = (0, 0);
    for _ in 0..MAX_CHAIN {
        if i + BIAS - candidate > WINDOW {
            break;
        }
        let c = candidate - BIAS;
        if load_u32(data, c) == key {
            let l = MIN_MATCH
                + common_prefix(&data[c + MIN_MATCH..c + max], &data[i + MIN_MATCH..i + max]);
            if l > best_len {
                best_len = l;
                best_dist = i - c;
            }
        }
        candidate = prev[c] as usize;
    }
    (best_len, best_dist)
}

/// A greedy hash-chain LZ77 compressor over a 32 KiB window, whose hash
/// tables outlive one input so that a caller compressing many chunks
/// allocates them once.
///
/// Token stream format:
/// * `0x00 len  bytes...` — literal run (len 1..=255);
/// * `0x01 len  dist_lo dist_hi` — match of `len` at `dist` back.
///
/// At each position with 4 bytes left, the chain of earlier positions
/// with the same 4-byte hash is walked newest first, at most 32
/// candidates and none more than 32 KiB back. The first candidate with
/// the longest match (capped at 255 bytes) wins; a winner of 4 bytes or
/// more is emitted as a match, and the positions it covers are hashed
/// too. Anything else is a literal.
///
/// Two shortcuts cannot change a token:
/// * The walk skips a candidate whose first 4 bytes differ from the
///   position's after one `u32` compare (it still counts against the
///   32). A skipped candidate matches at most 3 bytes, so it can set the
///   best length only while no candidate has reached `MIN_MATCH`, and if
///   none ever does the position is a literal whatever that length was.
///   Nor can it displace a candidate of 4 bytes or more, since a
///   replacement needs a strictly longer match.
/// * Each `head` entry packs the bucket's newest biased position (low 32
///   bits) with a key mask (high 32 bits) that holds the key bit of
///   every position inserted into the bucket during this input. Equal
///   keys have equal bits, so a position whose bit is clear in its
///   bucket's mask has no candidate with its key: the walk would skip
///   every candidate, and the position is a literal without one.
///
/// The `lz77_roundtrip` and `lz77_reuse` properties pin the token stream
/// against the unfiltered byte-by-byte walk, with fresh and with reused
/// tables.
///
/// Every input starts with `head` cleared, positions and masks, so each
/// candidate precedes the position being matched and each mask holds
/// only this input's keys. `prev` is reused without clearing: a link is
/// read only at a live candidate, which came from `head` or from another
/// link, so by induction from the cleared `head` it is a position
/// inserted earlier in this input, and that insertion wrote its link.
#[derive(Debug, Default)]
pub struct Lz77 {
    /// Per hash bucket: key mask `<< 32 |` newest biased position.
    head: Vec<u64>,
    /// Per position: the biased position inserted before it in its bucket.
    prev: Vec<u32>,
}

impl Lz77 {
    /// Replaces the contents of `out` with the token stream of `data`.
    ///
    /// # Panics
    ///
    /// Panics if `data` is 4 GiB or longer: hash-table positions are `u32`.
    pub fn compress_into(&mut self, data: &[u8], out: &mut Vec<u8>) {
        let n = data.len();
        assert!(n <= u32::MAX as usize - BIAS, "lz77: input of {n} bytes is too long");
        out.clear();
        // Room for an all-literal stream, which incompressible input is.
        out.reserve(n + 2 * n.div_ceil(255));
        self.head.clear();
        self.head.resize(1 << HASH_BITS, 0);
        if self.prev.len() < n {
            self.prev.resize(n, 0);
        }
        let (head, prev) = (&mut self.head[..], &mut self.prev[..n]);
        let mut literal_start = 0usize;
        let mut i = 0usize;

        while i < n {
            let (best_len, best_dist) = if i + MIN_MATCH <= n {
                let key = load_u32(data, i);
                // Inserting `i` before the walk is safe: the walk reads
                // `prev` only at earlier positions.
                let old = insert(head, prev, i, key);
                if old & key_bit(key) == 0 {
                    (0, 0)
                } else {
                    longest_match(data, prev, i, old as u32 as usize, key)
                }
            } else {
                (0, 0)
            };
            if best_len >= MIN_MATCH {
                emit_literals(out, &data[literal_start..i]);
                out.extend_from_slice(&[
                    0x01,
                    best_len as u8,
                    best_dist as u8,
                    (best_dist >> 8) as u8,
                ]);
                // Insert hash entries for the match body (cheap variant).
                let end = (i + best_len).min(n.saturating_sub(MIN_MATCH));
                for j in i + 1..end {
                    insert(head, prev, j, load_u32(data, j));
                }
                i += best_len;
                literal_start = i;
            } else {
                i += 1;
            }
        }
        emit_literals(out, &data[literal_start..]);
    }
}

/// The [`Lz77`] token stream of `data`, from fresh tables.
///
/// # Panics
///
/// Panics if `data` is 4 GiB or longer: hash-table positions are `u32`.
pub fn lz77_compress(data: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    Lz77::default().compress_into(data, &mut out);
    out
}

/// Decompresses an [`lz77_compress`] stream.
///
/// # Errors
///
/// Returns `Err` on malformed streams (truncation, wild distances).
pub fn lz77_decompress(stream: &[u8]) -> Result<Vec<u8>, &'static str> {
    let mut out = Vec::with_capacity(stream.len() * 2);
    let mut i = 0usize;
    while i < stream.len() {
        match stream[i] {
            0x00 => {
                if i + 2 > stream.len() {
                    return Err("truncated literal header");
                }
                let len = stream[i + 1] as usize;
                if i + 2 + len > stream.len() {
                    return Err("truncated literal run");
                }
                out.extend_from_slice(&stream[i + 2..i + 2 + len]);
                i += 2 + len;
            }
            0x01 => {
                if i + 4 > stream.len() {
                    return Err("truncated match");
                }
                let len = stream[i + 1] as usize;
                let dist = stream[i + 2] as usize | (stream[i + 3] as usize) << 8;
                if dist == 0 || dist > out.len() {
                    return Err("wild match distance");
                }
                let start = out.len() - dist;
                for k in 0..len {
                    let b = out[start + k];
                    out.push(b);
                }
                i += 4;
            }
            _ => return Err("bad token"),
        }
    }
    Ok(out)
}

/// Cycles charged per input byte compressed (calibrated so GZip's exit
/// rate lands near the paper's 0.08k/s).
pub const COMPRESS_CYCLES_PER_BYTE: u64 = 80;

/// The GZip workload (Table 4): compress a pseudo-random file streamed
/// through the filesystem in 64 KiB chunks.
#[derive(Debug, Clone)]
pub struct GzipWorkload {
    /// Input size in bytes (paper: 10 MB; scaled by the benches).
    pub input_len: usize,
    /// Chunk size for file I/O; [`Workload::run`] refuses 0 with `EINVAL`.
    pub chunk: usize,
}

impl GzipWorkload {
    /// Standard configuration at `input_len` bytes.
    pub fn new(input_len: usize) -> Self {
        GzipWorkload { input_len, chunk: 64 * 1024 }
    }
}

impl Workload for GzipWorkload {
    fn name(&self) -> &'static str {
        "GZip"
    }

    fn run(&mut self, driver: &mut dyn Driver) -> Result<WorkloadStats, Errno> {
        let input_len = self.input_len;
        let chunk_size = self.chunk;
        if chunk_size == 0 {
            return Err(Errno::EINVAL);
        }
        // Untrusted side prepares the input file (dd if=/dev/urandom).
        driver.untrusted(&mut |sys| {
            let mut drbg = Drbg::from_seed(b"gzip-input");
            let fd = sys.open("/data/gzip.in", OpenFlags::wronly_create_trunc())?;
            let mut remaining = input_len;
            let mut buf = vec![0u8; chunk_size];
            while remaining > 0 {
                let n = remaining.min(chunk_size);
                drbg.fill(&mut buf[..n]);
                sys.write(fd, &buf[..n])?;
                remaining -= n;
            }
            sys.close(fd)
        })?;

        // Shielded side: read, compress, write.
        let mut stats = WorkloadStats::default();
        driver.shielded(&mut |sys| {
            let input = sys.open("/data/gzip.in", OpenFlags::rdonly())?;
            let output = sys.open("/data/gzip.out", OpenFlags::wronly_create_trunc())?;
            let mut buf = vec![0u8; chunk_size];
            let (mut lz77, mut compressed) = (Lz77::default(), Vec::new());
            loop {
                let n = sys.read(input, &mut buf)?;
                if n == 0 {
                    break;
                }
                lz77.compress_into(&buf[..n], &mut compressed);
                sys.burn(n as u64 * COMPRESS_CYCLES_PER_BYTE);
                sys.write(output, &compressed)?;
                stats.ops += 1;
                stats.bytes += n as u64;
                stats.checksum = fnv1a(stats.checksum, &compressed);
            }
            sys.close(input)?;
            sys.close(output)
        })?;
        Ok(stats)
    }
}

/// The 7-Zip workload (Table 5, `pts/compress-7zip`): repeated
/// compression of an in-memory corpus with occasional audited file I/O.
#[derive(Debug, Clone)]
pub struct SevenZipWorkload {
    /// Corpus size per iteration.
    pub corpus_len: usize,
    /// Iterations.
    pub iterations: usize,
}

impl Workload for SevenZipWorkload {
    fn name(&self) -> &'static str {
        "7-Zip"
    }

    fn run(&mut self, driver: &mut dyn Driver) -> Result<WorkloadStats, Errno> {
        let corpus_len = self.corpus_len;
        let iterations = self.iterations;
        let mut stats = WorkloadStats::default();
        driver.shielded(&mut |sys| {
            // Compressible corpus: repeated dictionary words + noise.
            let mut drbg = Drbg::from_seed(b"7zip-corpus");
            let words: &[&[u8]] = &[b"benchmark ", b"compress ", b"archive ", b"veil "];
            let mut corpus = Vec::with_capacity(corpus_len);
            while corpus.len() < corpus_len {
                let w = words[(drbg.next_u64() % 4) as usize];
                if drbg.next_u64().is_multiple_of(8) {
                    corpus.push(drbg.next_u64() as u8);
                } else {
                    corpus.extend_from_slice(w);
                }
            }
            corpus.truncate(corpus_len);
            let out = sys.open("/data/7zip.out", OpenFlags::wronly_create_trunc())?;
            let (mut lz77, mut compressed) = (Lz77::default(), Vec::new());
            for _ in 0..iterations {
                lz77.compress_into(&corpus, &mut compressed);
                // 7-Zip's LZMA works much harder per byte than gzip.
                sys.burn(corpus_len as u64 * 3 * COMPRESS_CYCLES_PER_BYTE);
                sys.write(out, &compressed[..compressed.len().min(512)])?;
                stats.ops += 1;
                stats.bytes += corpus_len as u64;
                stats.checksum = fnv1a(stats.checksum, &compressed);
            }
            sys.close(out)
        })?;
        Ok(stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_structured_data() {
        let data =
            b"the quick brown fox jumps over the lazy dog. the quick brown fox again!".repeat(50);
        let compressed = lz77_compress(&data);
        assert!(compressed.len() < data.len() / 2, "repetitive data compresses well");
        assert_eq!(lz77_decompress(&compressed).unwrap(), data);
    }

    #[test]
    fn roundtrip_random_data() {
        let mut drbg = Drbg::from_seed(b"rnd");
        let mut data = vec![0u8; 10000];
        drbg.fill(&mut data);
        let compressed = lz77_compress(&data);
        assert_eq!(lz77_decompress(&compressed).unwrap(), data);
    }

    #[test]
    fn roundtrip_edge_cases() {
        for data in [&b""[..], &b"a"[..], &b"aaaa"[..], &b"abcabcabcabc"[..]] {
            let c = lz77_compress(data);
            assert_eq!(lz77_decompress(&c).unwrap(), data, "{data:?}");
        }
        // All-same bytes: long matches.
        let same = vec![7u8; 5000];
        let c = lz77_compress(&same);
        assert!(c.len() < 200);
        assert_eq!(lz77_decompress(&c).unwrap(), same);
    }

    #[test]
    fn decompress_rejects_garbage() {
        assert!(lz77_decompress(&[0x01, 10, 0xff, 0xff]).is_err(), "wild distance");
        assert!(lz77_decompress(&[0x00, 200, 1, 2]).is_err(), "truncated literals");
        assert!(lz77_decompress(&[0x42]).is_err(), "bad token");
    }

    #[test]
    fn gzip_workload_runs_natively() {
        let mut cvm = veil_services::CvmBuilder::new().frames(4096).build_native().unwrap();
        let pid = cvm.spawn();
        let mut d = crate::driver::KernelDriver { cvm: &mut cvm, pid };
        let mut w = GzipWorkload::new(128 * 1024);
        let stats = w.run(&mut d).unwrap();
        assert_eq!(stats.bytes, 128 * 1024);
        assert!(stats.ops >= 2);
        // The compressed bytes themselves are pinned: a kernel change that
        // moved a single token would move the checksum.
        assert_eq!(stats.checksum, 0xde71969df49ff97f);
        let mut sys = cvm.sys(pid);
        let st = veil_os::sys::Sys::stat(&mut sys, "/data/gzip.out").unwrap();
        assert_eq!(st.size, 132_104);
    }

    #[test]
    fn gzip_refuses_chunk_0_before_any_syscall() {
        let mut cvm = veil_services::CvmBuilder::new().frames(4096).build_native().unwrap();
        let pid = cvm.spawn();
        let mut d = crate::driver::KernelDriver { cvm: &mut cvm, pid };
        let before = d.cycles();
        let mut w = GzipWorkload { input_len: 1, chunk: 0 };
        assert_eq!(w.run(&mut d).unwrap_err(), Errno::EINVAL);
        assert_eq!(d.cycles(), before, "no syscall was charged");
    }

    /// `tests/properties.rs` builds inputs from these words to reach a
    /// walk that the key mask lets through but that finds no candidate.
    #[test]
    fn mask_collision_words_share_bucket_and_key_bit() {
        let (a, b) = (u32::from_le_bytes(*b"aani"), u32::from_le_bytes(*b"fear"));
        assert_eq!((hash4(a), key_bit(a)), (hash4(b), key_bit(b)));
    }

    #[test]
    fn seven_zip_workload_output_is_pinned() {
        let mut cvm = veil_services::CvmBuilder::new().frames(4096).build_native().unwrap();
        let pid = cvm.spawn();
        let mut d = crate::driver::KernelDriver { cvm: &mut cvm, pid };
        let mut w = SevenZipWorkload { corpus_len: 16 * 1024, iterations: 2 };
        let stats = w.run(&mut d).unwrap();
        assert_eq!((stats.ops, stats.bytes), (2, 32 * 1024));
        assert_eq!(stats.checksum, 0x4dd3aa4d937c8c05);
    }
}
