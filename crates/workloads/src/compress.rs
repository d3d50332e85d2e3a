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

fn load_u32(data: &[u8], i: usize) -> u32 {
    u32::from_le_bytes(data[i..i + 4].try_into().expect("a 4-byte slice"))
}

fn hash4(v: u32) -> usize {
    (v.wrapping_mul(2654435761) >> (32 - HASH_BITS)) as usize
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
    // Quick reject in one branch. The walk can meet a candidate with the
    // key only if the newest candidate is live and has it, or a second
    // candidate is live: `d0` is the newest one's distance, pushed past
    // the window by a key mismatch, and `d1` the second one's. An empty
    // or expired newest candidate has no live successor (`prev[0]` is
    // always empty). On incompressible input most positions stop here,
    // where separate tests would each be a mispredicted branch.
    let p0 = candidate.saturating_sub(BIAS);
    let d0 = (i + BIAS - candidate) as u64 | u64::from(load_u32(data, p0) ^ key) << 32;
    let d1 = (i + BIAS - prev[p0] as usize) as u64;
    if d0.min(d1) > WINDOW as u64 {
        return (0, 0);
    }
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

/// Greedy hash-chain LZ77 over a 32 KiB window.
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
/// The walk skips a candidate whose first 4 bytes differ from the
/// position's after one `u32` compare (it still counts against the 32),
/// and a position whose chain can hold no such candidate is not walked.
/// Neither can change a token. A skipped candidate matches at most 3
/// bytes, so it can set the best length only while no candidate has
/// reached `MIN_MATCH`, and if none ever does the position is a literal
/// whatever that length was. Nor can it displace a candidate of 4 bytes
/// or more, since a replacement needs a strictly longer match. The
/// `lz77_roundtrip` property pins the token stream against the
/// unfiltered byte-by-byte walk.
///
/// # Panics
///
/// Panics if `data` is 4 GiB or longer: hash-table positions are `u32`.
pub fn lz77_compress(data: &[u8]) -> Vec<u8> {
    let n = data.len();
    assert!(n <= u32::MAX as usize - BIAS, "lz77_compress: input of {n} bytes is too long");
    // Room for an all-literal stream, which incompressible input is.
    let mut out = Vec::with_capacity(n + 2 * n.div_ceil(255));
    let mut head = vec![0u32; 1 << HASH_BITS];
    let mut prev = vec![0u32; n.max(1)];
    let mut literal_start = 0usize;
    let mut i = 0usize;

    while i < n {
        let (best_len, best_dist) = if i + MIN_MATCH <= n {
            let key = load_u32(data, i);
            let h = hash4(key);
            // Inserting `i` before the walk is safe: the walk reads `prev`
            // only at earlier positions.
            let newest = head[h] as usize;
            prev[i] = head[h];
            head[h] = (i + BIAS) as u32;
            longest_match(data, &prev, i, newest, key)
        } else {
            (0, 0)
        };
        if best_len >= MIN_MATCH {
            emit_literals(&mut out, &data[literal_start..i]);
            out.extend_from_slice(&[0x01, best_len as u8, best_dist as u8, (best_dist >> 8) as u8]);
            // Insert hash entries for the match body (cheap variant).
            let end = (i + best_len).min(n.saturating_sub(MIN_MATCH));
            let mut j = i + 1;
            while j < end {
                let h = hash4(load_u32(data, j));
                prev[j] = head[h];
                head[h] = (j + BIAS) as u32;
                j += 1;
            }
            i += best_len;
            literal_start = i;
        } else {
            i += 1;
        }
    }
    emit_literals(&mut out, &data[literal_start..]);
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
    /// Chunk size for file I/O.
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
            loop {
                let n = sys.read(input, &mut buf)?;
                if n == 0 {
                    break;
                }
                let compressed = lz77_compress(&buf[..n]);
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
            for _ in 0..iterations {
                let compressed = lz77_compress(&corpus);
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
        let mut d = crate::driver::NativeDriver { cvm: &mut cvm, pid };
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
    fn seven_zip_workload_output_is_pinned() {
        let mut cvm = veil_services::CvmBuilder::new().frames(4096).build_native().unwrap();
        let pid = cvm.spawn();
        let mut d = crate::driver::NativeDriver { cvm: &mut cvm, pid };
        let mut w = SevenZipWorkload { corpus_len: 16 * 1024, iterations: 2 };
        let stats = w.run(&mut d).unwrap();
        assert_eq!((stats.ops, stats.bytes), (2, 32 * 1024));
        assert_eq!(stats.checksum, 0x4dd3aa4d937c8c05);
    }
}
