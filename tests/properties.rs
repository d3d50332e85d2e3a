//! Property-based tests over the core security invariants.
//!
//! These drive randomized operation sequences against the SNP model and
//! assert the invariants Veil's whole security argument rests on. The
//! cases come from `veil-testkit`'s deterministic engine; a failure
//! prints a `VEIL_TEST_SEED` line that replays it exactly.

use veil_snp::machine::{Machine, MachineConfig};
use veil_snp::perms::{Access, Cpl, Vmpl, VmplPerms};
use veil_snp::pt::{AddressSpace, PteFlags};
use veil_snp::rmp::PageState;
use veil_testkit::prop::{
    any_u8, bools, bytes, check, ints, one_of, tuple2, tuple3, tuple4, u64s, u8s, usizes, vecs,
    Strategy,
};
use veil_testkit::{prop_assert, prop_assert_eq};

const FRAMES: u64 = 64;

fn machine() -> Machine {
    Machine::new(MachineConfig { frames: FRAMES as usize, ..Default::default() })
}

/// One randomized RMP operation.
#[derive(Debug, Clone)]
enum RmpOp {
    Assign(u64),
    Reclaim(u64),
    Pvalidate { vmpl: usize, gfn: u64, validate: bool },
    Rmpadjust { executing: usize, gfn: u64, target: usize, perms: u8 },
    GuestWrite { vmpl: usize, gfn: u64 },
    HvWrite(u64),
}

fn op_strategy() -> Strategy<RmpOp> {
    one_of(vec![
        u64s(0..FRAMES).map(RmpOp::Assign),
        u64s(0..FRAMES).map(RmpOp::Reclaim),
        tuple3(usizes(0..4), u64s(0..FRAMES), bools())
            .map(|(vmpl, gfn, validate)| RmpOp::Pvalidate { vmpl, gfn, validate }),
        tuple4(usizes(0..4), u64s(0..FRAMES), usizes(0..4), u8s(0..16)).map(
            |(executing, gfn, target, perms)| RmpOp::Rmpadjust { executing, gfn, target, perms },
        ),
        tuple2(usizes(0..4), u64s(0..FRAMES)).map(|(vmpl, gfn)| RmpOp::GuestWrite { vmpl, gfn }),
        u64s(0..FRAMES).map(RmpOp::HvWrite),
    ])
}

/// No sequence of RMP operations — privileged or not — can ever give
/// a lower VMPL more access to a page than VMPL-0 granted it, let the
/// hypervisor read private memory, or corrupt validation state.
#[test]
fn rmp_invariants_hold_under_random_ops() {
    check("rmp_invariants_hold_under_random_ops", 64, &op_strategy().vec_of(1..200), |ops| {
        let mut m = machine();
        for op in ops {
            match op {
                RmpOp::Assign(gfn) => {
                    let _ = m.rmp_assign(gfn);
                }
                RmpOp::Reclaim(gfn) => {
                    let _ = m.rmp_reclaim(gfn);
                }
                RmpOp::Pvalidate { vmpl, gfn, validate } => {
                    let v = Vmpl::from_index(vmpl).unwrap();
                    let r = m.pvalidate(v, gfn, validate);
                    // PVALIDATE must refuse every level but VMPL-0.
                    if v != Vmpl::Vmpl0 {
                        prop_assert!(r.is_err());
                    }
                }
                RmpOp::Rmpadjust { executing, gfn, target, perms } => {
                    let e = Vmpl::from_index(executing).unwrap();
                    let t = Vmpl::from_index(target).unwrap();
                    let p = VmplPerms::from_bits_truncate(perms);
                    let before = m.rmp().entry(gfn).map(|en| en.perms(e));
                    let r = m.rmpadjust(e, gfn, t, p);
                    if r.is_ok() {
                        // Grant rule: the executor held every bit granted.
                        prop_assert!(before.unwrap().contains(p));
                        prop_assert!(e.dominates(t));
                    }
                    // An executor can never change its own level.
                    if e == t {
                        prop_assert!(r.is_err());
                    }
                }
                RmpOp::GuestWrite { vmpl, gfn } => {
                    let v = Vmpl::from_index(vmpl).unwrap();
                    let r = m.write(v, gfn * 4096, b"data");
                    // Writes succeed only where the RMP says so.
                    let allowed = m.rmp().check(gfn, v, Access::Write).is_ok();
                    prop_assert_eq!(r.is_ok(), allowed);
                }
                RmpOp::HvWrite(gfn) => {
                    let r = m.hv_write(gfn * 4096, b"host");
                    // The host only ever touches shared pages.
                    prop_assert_eq!(r.is_ok(), m.rmp().hypervisor_accessible(gfn));
                }
            }
            // Global invariants after every step:
            for gfn in 0..FRAMES {
                let e = m.rmp().entry(gfn).unwrap();
                // A page the hypervisor can access is never validated
                // guest memory.
                if m.rmp().hypervisor_accessible(gfn) {
                    prop_assert_eq!(e.state(), PageState::Shared);
                }
                // VMPL-0 retains full permissions on private pages.
                if e.state() == PageState::Validated {
                    prop_assert!(e.perms(Vmpl::Vmpl0).contains(VmplPerms::all()));
                }
            }
        }
        Ok(())
    });
}

/// Page-table mapping/translation agrees with a shadow oracle under
/// random map/unmap/protect sequences, and protected (VMPL-restricted)
/// final pages always fault for the restricted level.
#[test]
fn page_tables_match_oracle() {
    let ops = vecs(tuple4(u8s(0..3), u64s(0..32), u64s(0..16), bools()), 1..100);
    check("page_tables_match_oracle", 64, &ops, |ops| {
        let mut m = Machine::new(MachineConfig { frames: 256, ..Default::default() });
        let mut free: Vec<u64> = Vec::new();
        for gfn in 1..256u64 {
            m.rmp_assign(gfn).unwrap();
            m.pvalidate(Vmpl::Vmpl0, gfn, true).unwrap();
            for v in [Vmpl::Vmpl1, Vmpl::Vmpl2, Vmpl::Vmpl3] {
                m.rmpadjust(Vmpl::Vmpl0, gfn, v, VmplPerms::all()).unwrap();
            }
            free.push(gfn);
        }
        free.reverse();
        let aspace = AddressSpace::new(&mut m, Vmpl::Vmpl3, &mut free).unwrap();
        let mut oracle: std::collections::BTreeMap<u64, (u64, bool)> = Default::default();
        let mut data_frames: Vec<u64> = (0..16).map(|_| free.pop().unwrap()).collect();

        for (op, slot, frame_idx, writable) in ops {
            let vaddr = 0x4000_0000 + slot * 4096;
            match op {
                0 => {
                    let pfn = data_frames[frame_idx as usize % data_frames.len()];
                    let flags = if writable { PteFlags::user_data() } else { PteFlags::user_ro() };
                    let r = aspace.map(&mut m, Vmpl::Vmpl3, &mut free, vaddr, pfn, flags);
                    match oracle.entry(vaddr) {
                        std::collections::btree_map::Entry::Occupied(_) => {
                            prop_assert!(r.is_err(), "double map must fail");
                        }
                        std::collections::btree_map::Entry::Vacant(slot) => {
                            if r.is_ok() {
                                slot.insert((pfn, writable));
                            }
                        }
                    }
                }
                1 => {
                    let r = aspace.unmap(&mut m, Vmpl::Vmpl3, vaddr);
                    match oracle.remove(&vaddr) {
                        Some((pfn, _)) => prop_assert_eq!(r.unwrap(), pfn),
                        None => prop_assert!(r.is_err()),
                    }
                }
                _ => {
                    let flags = if writable { PteFlags::user_data() } else { PteFlags::user_ro() };
                    let r = aspace.protect(&mut m, Vmpl::Vmpl3, vaddr, flags);
                    if let Some(entry) = oracle.get_mut(&vaddr) {
                        prop_assert!(r.is_ok());
                        entry.1 = writable;
                    } else {
                        prop_assert!(r.is_err());
                    }
                }
            }
            // Oracle agreement on every mapped slot.
            for (va, (pfn, w)) in &oracle {
                let (got_pfn, _) = aspace.translate(&m, *va).unwrap();
                prop_assert_eq!(got_pfn, *pfn);
                let write_ok =
                    aspace.access(&m, *va, Vmpl::Vmpl3, Cpl::Cpl3, Access::Write).is_ok();
                prop_assert_eq!(write_ok, *w);
            }
        }
        let _ = &mut data_frames;
        Ok(())
    });
}

/// Sealed-channel round trips never lose or corrupt data, for any
/// payloads, and cross-channel messages never authenticate.
#[test]
fn secure_channel_roundtrip() {
    check("secure_channel_roundtrip", 64, &vecs(bytes(0..200), 1..20), |msgs| {
        use veil_core::remote::SecureChannel;
        let mut a = SecureChannel::new([1; 32]);
        let mut b = SecureChannel::new([1; 32]);
        let mut eve = SecureChannel::new([2; 32]);
        for msg in &msgs {
            let sealed = a.seal(msg);
            prop_assert!(eve.open(&sealed).is_err(), "wrong key must fail");
            prop_assert_eq!(&b.open(&sealed).unwrap(), msg);
        }
        Ok(())
    });
}

// ---- decoders of host-relayed bytes never panic ------------------------
//
// The remote user decodes bytes the untrusted host relays: the chain
// report of the channel bootstrap, sealed channel messages, and the audit
// records inside them. Each decoder gets random bytes, truncations and
// single-byte mutations of a valid encoding, and may only answer with a
// value or its typed error (a panic fails the property).

/// Random bytes, a prefix of `valid`, or `valid` with one byte XORed.
fn hostile_bytes(valid: Vec<u8>) -> Strategy<Vec<u8>> {
    let len = valid.len();
    let prefix = valid.clone();
    one_of(vec![
        bytes(0..2 * len),
        usizes(0..len + 1).map(move |n| prefix[..n].to_vec()),
        tuple2(usizes(0..len), u8s(0..255)).map(move |(at, x)| {
            let mut v = valid.clone();
            v[at] ^= x;
            v
        }),
    ])
}

#[test]
fn chain_report_decoder_never_panics() {
    use veil_snp::vcek::{chip_seed, ChainReport, ChainVerifier, TcbVersion, VerifyError};
    let seed = chip_seed(&[0x3c; 32]);
    let valid = ChainReport::issue(&seed, TcbVersion(2), [1; 32], Vmpl::Vmpl0, [2; 32], [3; 64]);
    check("chain_report_decoder", 256, &hostile_bytes(valid.to_bytes()), |b| {
        match ChainReport::from_bytes(&b) {
            Ok(report) => prop_assert_eq!(report.to_bytes(), b.clone()),
            Err(e) => prop_assert_eq!(e, VerifyError::Malformed),
        }
        // The full check order runs on whatever decodes.
        let mut verifier = ChainVerifier::with_kds(&seed, TcbVersion(1), TcbVersion(3), [1; 32]);
        let verdict = verifier.verify_bytes(&b, &[2; 32]);
        prop_assert!(verdict.is_err() || b == valid.to_bytes());
        Ok(())
    });
}

#[test]
fn sealed_channel_decoder_never_panics() {
    use veil_core::remote::{ChannelError, SecureChannel};
    let valid = SecureChannel::new([5; 32]).seal(b"audit record bytes");
    check("sealed_channel_decoder", 256, &hostile_bytes(valid.clone()), |b| {
        match SecureChannel::new([5; 32]).open(&b) {
            Ok(plaintext) => {
                prop_assert!(b == valid, "only the genuine message opens");
                prop_assert_eq!(plaintext, b"audit record bytes".to_vec());
            }
            Err(ChannelError::Truncated) => prop_assert!(b.len() < 32),
            Err(ChannelError::BadTag) => prop_assert!(b != valid),
        }
        Ok(())
    });
}

#[test]
fn audit_record_decoder_never_panics() {
    use veil_os::audit::AuditRecord;
    use veil_os::syscall::Sysno;
    let record = AuditRecord { seq: 7, pid: 3, uid: 0, sysno: Sysno::Pwrite64, ret: -13, tsc: 99 };
    check("audit_record_decoder", 256, &hostile_bytes(record.to_bytes()), |b| {
        if let Some(parsed) = AuditRecord::from_bytes(&b) {
            // Only the encoder's exact image parses.
            prop_assert_eq!(parsed.to_bytes(), b.clone());
        } else {
            let sysno = b
                .get(16..24)
                .and_then(|n| Sysno::ALL.iter().find(|s| s.num().to_le_bytes() == n).copied());
            // Refused: short, an unknown number, or a name that is not
            // that number's name.
            prop_assert!(
                b.len() < 40 || sysno.is_none_or(|s| b[40..] != *s.name().as_bytes()),
                "a well-formed record was refused: {b:?}"
            );
        }
        Ok(())
    });
}

/// `Idcb::read_message` parses the 16-byte `magic(4) seq(4) len(8)`
/// header the sending domain wrote. Random headers, and valid ones with a
/// magic byte flipped or the length at or past the page's capacity
/// (capacity, capacity + 1, `u64::MAX`), must come back `Ok` exactly when
/// the magic matches and the length fits, and as an `OsError` otherwise.
#[test]
fn idcb_header_decoder_never_panics() {
    use veil_core::idcb::Idcb;
    use veil_snp::mem::gpa_of;
    const GFN: u64 = 3;
    let machine = || {
        let mut m = Machine::new(MachineConfig { frames: 8, ..Default::default() });
        m.rmp_assign(GFN).unwrap();
        m.pvalidate(Vmpl::Vmpl0, GFN, true).unwrap();
        m.rmpadjust(Vmpl::Vmpl0, GFN, Vmpl::Vmpl3, VmplPerms::rw()).unwrap();
        m
    };
    let idcb = Idcb::at(GFN);
    let mut m = machine();
    idcb.write_message(&mut m, Vmpl::Vmpl3, 9, b"pvalidate 0x50").unwrap();
    let valid = m.read(Vmpl::Vmpl3, gpa_of(GFN), 16).unwrap();
    let cap = Idcb::capacity() as u64;
    let lengths = one_of(vec![
        usizes(0..3).map(move |i| [cap, cap + 1, u64::MAX][i]),
        u64s(0..cap + 2),
        u64s(0..u64::MAX),
    ]);
    // (magic byte to flip, 4 = none; its XOR mask; seq; len)
    let mutated = tuple4(usizes(0..5), any_u8(), u64s(0..1 << 32), lengths);
    let magic = valid[..4].to_vec();
    let headers = one_of(vec![
        bytes(16..17),
        mutated.map(move |(at, x, seq, len)| {
            let mut h = magic.clone();
            if at < 4 {
                h[at] ^= x.max(1);
            }
            h.extend_from_slice(&(seq as u32).to_le_bytes());
            h.extend_from_slice(&len.to_le_bytes());
            h
        }),
    ]);
    check("idcb_header_decoder", 512, &headers, |header| {
        let mut m = machine();
        prop_assert!(m.write(Vmpl::Vmpl3, gpa_of(GFN), &header).is_ok());
        let len = u64::from_le_bytes(header[8..16].try_into().unwrap());
        let well_formed = header[..4] == valid[..4] && len <= cap;
        match idcb.read_message(&m, Vmpl::Vmpl0) {
            Ok((seq, payload)) => {
                prop_assert!(well_formed, "accepted a corrupt header {header:02x?}");
                prop_assert_eq!(seq.to_le_bytes()[..], header[4..8]);
                prop_assert_eq!(payload.len() as u64, len);
            }
            Err(e) => prop_assert!(!well_formed, "refused a valid header {header:02x?}: {e}"),
        }
        Ok(())
    });
}

/// The hash bucket of the 4 bytes at `data[i..]` in
/// [`reference_lz77_compress`].
fn reference_hash4(data: &[u8], i: usize) -> usize {
    const HASH_BITS: usize = 15;
    let v = u32::from_le_bytes([data[i], data[i + 1], data[i + 2], data[i + 3]]);
    (v.wrapping_mul(2654435761) >> (32 - HASH_BITS)) as usize
}

/// The straightforward hash-chain LZ77 that `lz77_compress` is
/// optimized from, kept as the reference its token stream must equal.
fn reference_lz77_compress(data: &[u8]) -> Vec<u8> {
    const WINDOW: usize = 32 * 1024;
    const MIN_MATCH: usize = 4;
    const MAX_MATCH: usize = 255;
    const HASH_BITS: usize = 15;
    use reference_hash4 as hash4;

    let mut out = Vec::with_capacity(data.len() / 2 + 16);
    let mut head = vec![usize::MAX; 1 << HASH_BITS];
    let mut prev = vec![usize::MAX; data.len().max(1)];
    let mut literals: Vec<u8> = Vec::new();
    let mut i = 0usize;

    let flush_literals = |out: &mut Vec<u8>, literals: &mut Vec<u8>| {
        for chunk in literals.chunks(255) {
            out.push(0x00);
            out.push(chunk.len() as u8);
            out.extend_from_slice(chunk);
        }
        literals.clear();
    };

    while i < data.len() {
        let mut best_len = 0usize;
        let mut best_dist = 0usize;
        if i + MIN_MATCH <= data.len() {
            let h = hash4(data, i);
            let mut candidate = head[h];
            let mut chain = 0;
            while candidate != usize::MAX && i - candidate <= WINDOW && chain < 32 {
                let mut l = 0usize;
                let max = MAX_MATCH.min(data.len() - i);
                while l < max && data[candidate + l] == data[i + l] {
                    l += 1;
                }
                if l > best_len {
                    best_len = l;
                    best_dist = i - candidate;
                }
                candidate = prev[candidate];
                chain += 1;
            }
            prev[i] = head[h];
            head[h] = i;
        }
        if best_len >= MIN_MATCH {
            flush_literals(&mut out, &mut literals);
            out.push(0x01);
            out.push(best_len as u8);
            out.push((best_dist & 0xff) as u8);
            out.push((best_dist >> 8) as u8);
            // Insert hash entries for the match body (cheap variant).
            let end = (i + best_len).min(data.len().saturating_sub(MIN_MATCH));
            let mut j = i + 1;
            while j < end {
                let h = hash4(data, j);
                prev[j] = head[h];
                head[h] = j;
                j += 1;
            }
            i += best_len;
        } else {
            literals.push(data[i]);
            if literals.len() == 255 {
                flush_literals(&mut out, &mut literals);
            }
            i += 1;
        }
    }
    flush_literals(&mut out, &mut literals);
    out
}

/// Inputs for the LZ77 properties. Besides random bytes: 1- to 4-symbol
/// alphabets of up to 70 KiB, whose chains hit the 32-candidate cap and
/// whose matches reach `MAX_MATCH`; a block repeated 32,766 to 32,770
/// bytes later, whose candidates sit on the edge of the 32 KiB window;
/// words whose keys collide; and inputs past twice the window whose key
/// masks saturate.
fn lz77_inputs() -> Strategy<Vec<u8>> {
    let small_alphabet = |k: u8| vecs(u8s(0..k), 0..70 * 1024);
    let window_edge = tuple3(bytes(4..256), usizes(0..5), any_u8()).map(|(block, skew, fill)| {
        let mut v = block.clone();
        v.resize(32 * 1024 - 2 + skew, fill);
        v.extend_from_slice(&block);
        v
    });
    let two_words = |a: [u8; 4], b: [u8; 4]| {
        vecs(bools(), 0..16 * 1024)
            .map(move |words| words.into_iter().flat_map(|w| if w { a } else { b }).collect())
    };
    // "arux" and "baba" share a hash bucket and differ in their first
    // byte, so the greedy parse stays word-aligned and every chain it
    // walks mixes the two keys: the 4-byte filter skips about half.
    let colliding_words = two_words(*b"arux", *b"baba");
    // "aani" and "fear" also share their key-mask bit (a unit test in
    // `veil_workloads::compress` pins that), so the first of one word
    // after a run of the other passes the mask and walks a chain with no
    // candidate of its key.
    let mask_colliding_words = two_words(*b"aani", *b"fear");
    // 96 keys of one bucket set nearly every bit of its mask. Between two
    // runs of them, 33 KiB of random bytes expire every candidate, so the
    // mask passes while the chain holds nothing live.
    let veil = reference_hash4(b"veil", 0);
    let bucket: Vec<[u8; 4]> =
        (0u32..).map(u32::to_le_bytes).filter(|w| reference_hash4(w, 0) == veil).take(96).collect();
    let run = vecs(usizes(0..bucket.len()), 4096..6144);
    let saturated =
        tuple3(run.clone(), bytes(33 * 1024..34 * 1024), run).map(move |(a, filler, b)| {
            let words =
                |run: Vec<usize>| run.into_iter().flat_map(|w| bucket[w]).collect::<Vec<_>>();
            [words(a), filler, words(b)].concat()
        });
    let mut inputs =
        vec![bytes(0..4096), window_edge, colliding_words, mask_colliding_words, saturated];
    inputs.extend((1..=4).map(small_alphabet));
    // `one_of` drops shrinking; shrink any input as `bytes` does.
    let ladder = bytes(0..4096);
    one_of(inputs).with_shrink(move |v| ladder.shrinks(v))
}

/// LZ77 compression round-trips arbitrary data (the Fig. 5 compute
/// kernel must be *correct*, not just costed), and its token stream is
/// byte-for-byte the reference's.
#[test]
fn lz77_roundtrip() {
    check("lz77_roundtrip", 64, &lz77_inputs(), |data| {
        use veil_workloads::compress::{lz77_compress, lz77_decompress};
        let c = lz77_compress(&data);
        prop_assert!(c == reference_lz77_compress(&data), "token stream differs from reference");
        prop_assert_eq!(lz77_decompress(&c).unwrap(), data);
        Ok(())
    });
}

/// One `Lz77` compresses a sequence of inputs, longer and shorter than
/// the last, with the reference's tokens for each: nothing an input
/// leaves in the reused tables reaches the next one's tokens.
#[test]
fn lz77_reuse() {
    check("lz77_reuse", 24, &lz77_inputs().vec_of(1..7), |inputs| {
        let (mut lz77, mut out) = (veil_workloads::compress::Lz77::default(), Vec::new());
        for (k, data) in inputs.iter().enumerate() {
            lz77.compress_into(data, &mut out);
            prop_assert!(out == reference_lz77_compress(data), "input {k} differs from reference");
        }
        Ok(())
    });
}

/// The straightforward SHA-256 that `veil_crypto::sha256` is optimized
/// from, kept as the reference its digests must equal: a 64-byte copy of
/// each block, a 64-word schedule, rounds that shift all eight working
/// variables, and padding one byte at a time.
mod reference_sha256 {
    const DIGEST_LEN: usize = 32;
    const BLOCK_LEN: usize = 64;

    const K: [u32; 64] = [
        0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4,
        0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe,
        0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f,
        0x4a7484aa, 0x5cb0a9dc, 0x76f988da, 0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7,
        0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc,
        0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
        0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070, 0x19a4c116,
        0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
        0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7,
        0xc67178f2,
    ];

    const H0: [u32; 8] = [
        0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab,
        0x5be0cd19,
    ];

    pub struct Sha256 {
        state: [u32; 8],
        buf: [u8; BLOCK_LEN],
        buf_len: usize,
        total_len: u64,
    }

    impl Sha256 {
        pub fn new() -> Self {
            Sha256 { state: H0, buf: [0u8; BLOCK_LEN], buf_len: 0, total_len: 0 }
        }

        pub fn digest(data: &[u8]) -> [u8; DIGEST_LEN] {
            let mut h = Self::new();
            h.update(data);
            h.finalize()
        }

        pub fn update(&mut self, data: &[u8]) {
            self.total_len = self.total_len.wrapping_add(data.len() as u64);
            let mut data = data;
            if self.buf_len > 0 {
                let take = (BLOCK_LEN - self.buf_len).min(data.len());
                self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
                self.buf_len += take;
                data = &data[take..];
                if self.buf_len == BLOCK_LEN {
                    let block = self.buf;
                    self.compress(&block);
                    self.buf_len = 0;
                }
            }
            while data.len() >= BLOCK_LEN {
                let mut block = [0u8; BLOCK_LEN];
                block.copy_from_slice(&data[..BLOCK_LEN]);
                self.compress(&block);
                data = &data[BLOCK_LEN..];
            }
            if !data.is_empty() {
                self.buf[..data.len()].copy_from_slice(data);
                self.buf_len = data.len();
            }
        }

        pub fn finalize(mut self) -> [u8; DIGEST_LEN] {
            let bit_len = self.total_len.wrapping_mul(8);
            // Padding: 0x80, zeros, 64-bit big-endian length.
            self.update(&[0x80]);
            // `update` mutated total_len; the length we encode was latched above.
            while self.buf_len != 56 {
                self.update(&[0]);
            }
            self.total_len = 0; // no longer meaningful
            let block_tail = bit_len.to_be_bytes();
            let mut last = [0u8; BLOCK_LEN];
            last[..56].copy_from_slice(&self.buf[..56]);
            last[56..].copy_from_slice(&block_tail);
            self.compress(&last.clone());
            let mut out = [0u8; DIGEST_LEN];
            for (i, word) in self.state.iter().enumerate() {
                out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
            }
            out
        }

        fn compress(&mut self, block: &[u8; BLOCK_LEN]) {
            let mut w = [0u32; 64];
            for (i, chunk) in block.chunks_exact(4).enumerate() {
                w[i] = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
            }
            for i in 16..64 {
                let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
                let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
                w[i] = w[i - 16].wrapping_add(s0).wrapping_add(w[i - 7]).wrapping_add(s1);
            }
            let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = self.state;
            for i in 0..64 {
                let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
                let ch = (e & f) ^ ((!e) & g);
                let t1 = h.wrapping_add(s1).wrapping_add(ch).wrapping_add(K[i]).wrapping_add(w[i]);
                let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
                let maj = (a & b) ^ (a & c) ^ (b & c);
                let t2 = s0.wrapping_add(maj);
                h = g;
                g = f;
                f = e;
                e = d.wrapping_add(t1);
                d = c;
                c = b;
                b = a;
                a = t1.wrapping_add(t2);
            }
            self.state[0] = self.state[0].wrapping_add(a);
            self.state[1] = self.state[1].wrapping_add(b);
            self.state[2] = self.state[2].wrapping_add(c);
            self.state[3] = self.state[3].wrapping_add(d);
            self.state[4] = self.state[4].wrapping_add(e);
            self.state[5] = self.state[5].wrapping_add(f);
            self.state[6] = self.state[6].wrapping_add(g);
            self.state[7] = self.state[7].wrapping_add(h);
        }
    }

    /// RFC 2104 HMAC over the reference hash.
    pub fn hmac(key: &[u8], data: &[u8]) -> [u8; DIGEST_LEN] {
        let mut block = [0u8; BLOCK_LEN];
        if key.len() > BLOCK_LEN {
            block[..DIGEST_LEN].copy_from_slice(&Sha256::digest(key));
        } else {
            block[..key.len()].copy_from_slice(key);
        }
        let mut inner = Sha256::new();
        inner.update(&block.map(|b| b ^ 0x36));
        inner.update(data);
        let mut outer = Sha256::new();
        outer.update(&block.map(|b| b ^ 0x5c));
        outer.update(&inner.finalize());
        outer.finalize()
    }
}

/// `Sha256` and `HmacSha256` return the reference's digests, hashed in one
/// call or fed in up to 9 pieces. Half the lengths sit on the padding
/// edges `64k + {0, 1, 55, 56, 57, 63}` (k ≤ 4), where the length field
/// fits the last block or needs one more; the rest are 0..=300 bytes or
/// up to 70 KiB. HMAC keys are empty, 32 bytes, one block, and longer than
/// a block (hashed first). The input is a seed, not the bytes, so a
/// failure prints in a few lines.
#[test]
fn sha256_matches_reference() {
    use veil_crypto::{HmacSha256, Sha256};
    use veil_testkit::TestRng;
    let edge = tuple2(usizes(0..5), usizes(0..6)).map(|(k, i)| 64 * k + [0, 1, 55, 56, 57, 63][i]);
    let lens = one_of(vec![edge.clone(), edge, usizes(0..301), usizes(0..70 * 1024 + 1)])
        .with_shrink(|&n| [0, n / 2, n.saturating_sub(1)].into_iter().filter(|&m| m < n).collect());
    let key_lens = usizes(0..5).map(|i| [0, 32, 64, 65, 131][i]);
    let cases = tuple4(lens, vecs(u64s(0..u64::MAX), 0..9), key_lens, u64s(0..u64::MAX));
    check("sha256_matches_reference", 256, &cases, |(len, cuts, key_len, seed)| {
        let mut rng = TestRng::from_seed(seed);
        let (mut data, mut key) = (vec![0u8; len], vec![0u8; key_len]);
        rng.fill_bytes(&mut data);
        rng.fill_bytes(&mut key);
        let mut cuts: Vec<usize> = cuts.iter().map(|&c| (c % (len as u64 + 1)) as usize).collect();
        cuts.sort_unstable();
        cuts.push(len);

        let want = reference_sha256::Sha256::digest(&data);
        prop_assert_eq!(Sha256::digest(&data), want);
        let want_mac = reference_sha256::hmac(&key, &data);
        prop_assert_eq!(HmacSha256::mac(&key, &data), want_mac);
        let (mut h, mut mac, mut at) = (Sha256::new(), HmacSha256::new(&key), 0);
        for cut in cuts {
            h.update(&data[at..cut]);
            mac.update(&data[at..cut]);
            at = cut;
        }
        prop_assert_eq!(h.finalize(), want);
        prop_assert_eq!(mac.finalize(), want_mac);
        Ok(())
    });
}

/// A batched, VeilLog-audited CVM with `k` audited syscalls (file
/// creations) queued in VCPU 0's gate ring, the process that issued them,
/// and the gate-request, deferred-error and log-record counts from before
/// they were issued.
fn queued_audit_cvm(k: usize) -> (veil::prelude::Cvm, veil_os::process::Pid, [u64; 3]) {
    use veil::prelude::*;
    let mut cvm = CvmBuilder::new().frames(2048).vcpus(1).batch(true).build().unwrap();
    cvm.kernel.audit.mode = veil_os::audit::AuditMode::VeilLog;
    cvm.kernel.audit.rules = veil_os::audit::paper_ruleset();
    let pid = cvm.spawn();
    cvm.flush_gate().unwrap();
    let before = [
        cvm.gate.gate_requests(),
        cvm.gate.deferred_errors(),
        cvm.gate.services.log.record_count(),
    ];
    audited_creates(&mut cvm, pid, 0..k);
    assert_eq!(cvm.gate.pending_depth(0) as usize, k, "every audit record must still be queued");
    (cvm, pid, before)
}

/// Creates `/tmp/q{i}` for each `i` in `names` as process `pid`, one
/// audited syscall each.
fn audited_creates(
    cvm: &mut veil::prelude::Cvm,
    pid: veil_os::process::Pid,
    names: std::ops::Range<usize>,
) {
    use veil_os::sys::{OpenFlags, Sys};
    let mut sys = cvm.sys(pid);
    for i in names {
        sys.open(&format!("/tmp/q{i}"), OpenFlags::rdwr_create()).unwrap();
    }
}

/// The gate ring is written by the untrusted kernel (VMPL-3) and re-read
/// by the trusted drain. Whatever bytes the kernel leaves there between
/// an audited syscall and the doorbell, the flush must not panic, may
/// only fail with a typed `OsError`, and must account for every deferred
/// request: each one is either a stored log record or a deferred error.
/// k stays below the ring's 15 slots, where the ring drains on its own
/// before it can be corrupted.
#[test]
fn hostile_gate_ring_bytes_complete_or_count_every_deferred_request() {
    use veil_snp::mem::{gpa_of, PAGE_SIZE};
    let ring_gfn = |cvm: &veil::prelude::Cvm| cvm.gate.monitor.layout.gate_ring_gfn(0).unwrap();
    let attacks: Vec<Strategy<(usize, Vec<u8>)>> = (1..=14)
        .map(|k| {
            let (cvm, ..) = queued_audit_cvm(k);
            let valid =
                cvm.hv.machine.read(Vmpl::Vmpl3, gpa_of(ring_gfn(&cvm)), PAGE_SIZE).unwrap();
            hostile_bytes(valid).map(move |bytes| (k, bytes))
        })
        .collect();
    check("hostile_gate_ring_bytes", 160, &one_of(attacks), |(k, mut bytes)| {
        bytes.truncate(PAGE_SIZE);
        let (mut cvm, _, [requests, errors, records]) = queued_audit_cvm(k);
        let ring = gpa_of(ring_gfn(&cvm));
        prop_assert!(cvm.hv.machine.write(Vmpl::Vmpl3, ring, &bytes).is_ok());
        // Any result is a typed `OsError` or success; a panic fails the case.
        let _flushed: Result<(), veil_os::error::OsError> = cvm.flush_gate();
        prop_assert_eq!(cvm.gate.pending_depth(0), 0);
        let requests = cvm.gate.gate_requests() - requests;
        let errors = cvm.gate.deferred_errors() - errors;
        let records = cvm.gate.services.log.record_count() - records;
        prop_assert_eq!(requests, k as u64);
        prop_assert_eq!(records + errors, requests);
        Ok(())
    });
}

/// The kernel writes each ring slot at its own batch length and never
/// reads the ring back, so only the trusted drain can notice hostile
/// bytes. Whatever the kernel leaves in the ring after `j` of `k` audited
/// syscalls, the remaining syscalls still run, the flush must not panic
/// and must empty the batch, and each audited syscall must end as exactly
/// one of a stored log record, a deferred error or a kernel audit failure.
#[test]
fn gate_ring_corrupted_between_enqueues_completes_or_counts_every_record() {
    use veil_snp::mem::{gpa_of, PAGE_SIZE};
    let attacks: Vec<Strategy<(usize, usize, Vec<u8>)>> = (1..14)
        .map(|j| {
            let (cvm, ..) = queued_audit_cvm(j);
            let ring = gpa_of(cvm.gate.monitor.layout.gate_ring_gfn(0).unwrap());
            let valid = cvm.hv.machine.read(Vmpl::Vmpl3, ring, PAGE_SIZE).unwrap();
            tuple2(usizes(j + 1..15), hostile_bytes(valid)).map(move |(k, bytes)| (j, k, bytes))
        })
        .collect();
    check("gate_ring_corrupted_between_enqueues", 160, &one_of(attacks), |(j, k, mut bytes)| {
        bytes.truncate(PAGE_SIZE);
        let (mut cvm, pid, [requests, errors, records]) = queued_audit_cvm(j);
        let failures = cvm.kernel.audit_failures;
        let ring = gpa_of(cvm.gate.monitor.layout.gate_ring_gfn(0).unwrap());
        prop_assert!(cvm.hv.machine.write(Vmpl::Vmpl3, ring, &bytes).is_ok());
        audited_creates(&mut cvm, pid, j..k);
        // Any result is a typed `OsError` or success; a panic fails the case.
        let _flushed: Result<(), veil_os::error::OsError> = cvm.flush_gate();
        prop_assert_eq!(cvm.gate.pending_depth(0), 0);
        let requests = cvm.gate.gate_requests() - requests;
        let errors = cvm.gate.deferred_errors() - errors;
        let records = cvm.gate.services.log.record_count() - records;
        let failures = cvm.kernel.audit_failures - failures;
        prop_assert_eq!(requests, k as u64);
        prop_assert_eq!(records + errors + failures, requests);
        Ok(())
    });
}

/// Paths for [`SysCall`]: files, a directory, a missing parent and the
/// root of the tree.
const SYS_PATHS: [&str; 5] = ["/tmp/a", "/tmp/b", "/tmp/dir", "/nope/x", "/tmp"];

/// One `Sys` call with raw arguments. `op` picks the call (see
/// [`run_sys_call`]); `fd` and `fd2` range over the console, opened,
/// closed and never-opened descriptors and also index the regions mapped
/// so far (an index past them names an unknown region); `len` is 0, half
/// a page, one page or one and a half pages.
#[derive(Debug, Clone)]
struct SysCall {
    op: usize,
    fd: i32,
    fd2: i32,
    path: usize,
    path2: usize,
    len: usize,
}

/// Runs `call` and returns the syscall it made with its result in audit
/// form (a value, or the errno), or `None` for the calls that are not
/// syscalls: user-memory access and compute.
fn run_sys_call(
    sys: &mut veil_os::kernel::KernelSys<'_>,
    call: &SysCall,
    mapped: &mut Vec<u64>,
) -> Option<(veil_os::syscall::Sysno, Result<i64, veil_os::Errno>)> {
    use veil_os::sys::{OpenFlags, Sys, Whence};
    use veil_os::syscall::Sysno;
    let SysCall { op, fd, fd2, len, .. } = *call;
    let (path, path2) = (SYS_PATHS[call.path], SYS_PATHS[call.path2]);
    let region =
        usize::try_from(fd).ok().and_then(|i| mapped.get(i)).copied().unwrap_or(0xdead_0000);
    let bits = fd2 as u8;
    let flags = OpenFlags {
        read: true,
        write: bits & 1 != 0,
        create: bits & 2 != 0,
        truncate: bits & 4 != 0,
        append: bits & 8 != 0,
    };
    let whence = [Whence::Set, Whence::Cur, Whence::End][call.path % 3];
    let mut buf = vec![0u8; len];
    let zero = |r: Result<(), veil_os::Errno>| r.map(|()| 0);
    let count = |r: Result<usize, veil_os::Errno>| r.map(|n| n as i64);
    Some(match op {
        0 => (Sysno::Open, sys.open(path, flags).map(i64::from)),
        1 => (Sysno::Close, zero(sys.close(fd))),
        2 => (Sysno::Read, count(sys.read(fd, &mut buf))),
        3 => (Sysno::Write, count(sys.write(fd, &buf))),
        4 => (Sysno::Pread64, count(sys.pread(fd, &mut buf, u64::from(bits) * 100))),
        5 => (Sysno::Pwrite64, count(sys.pwrite(fd, &buf, u64::from(bits) * 100))),
        6 => (Sysno::Lseek, sys.lseek(fd, i64::from(fd2) * 100 - 200, whence).map(|o| o as i64)),
        7 => (Sysno::Stat, sys.stat(path).map(|_| 0)),
        8 => (Sysno::Fstat, sys.fstat(fd).map(|_| 0)),
        9 => (Sysno::Mkdir, zero(sys.mkdir(path))),
        10 => (Sysno::Rmdir, zero(sys.rmdir(path))),
        11 => (Sysno::Unlink, zero(sys.unlink(path))),
        12 => (Sysno::Rename, zero(sys.rename(path, path2))),
        13 => (Sysno::Link, zero(sys.link(path, path2))),
        14 => (Sysno::Symlink, zero(sys.symlink(path, path2))),
        15 => (Sysno::Ftruncate, zero(sys.ftruncate(fd, len as u64))),
        16 => (Sysno::Chmod, zero(sys.chmod(path, 0o600))),
        17 => (Sysno::Fchmod, zero(sys.fchmod(fd, 0o600))),
        18 => (Sysno::Getdents, sys.getdents(fd).map(|names| names.len() as i64)),
        19 => {
            let addr = sys.mmap(len);
            mapped.extend(addr.iter().copied());
            (Sysno::Mmap, addr.map(|a| a as i64))
        }
        20 => (Sysno::Munmap, zero(sys.munmap(region, len))),
        21 => (Sysno::Mprotect, zero(sys.mprotect(region, len, fd2 % 2 == 0))),
        22 => {
            let _ = sys.mem_write(region, &buf);
            return None;
        }
        23 => {
            let _ = sys.mem_read(region, &mut buf);
            return None;
        }
        24 => {
            sys.burn(len as u64);
            return None;
        }
        25 => (Sysno::Socket, sys.socket().map(i64::from)),
        26 => (Sysno::Bind, zero(sys.bind(fd, 8000 + u16::from(bits)))),
        27 => (Sysno::Listen, zero(sys.listen(fd))),
        28 => (Sysno::Accept, sys.accept(fd).map(i64::from)),
        29 => (Sysno::Connect, zero(sys.connect(fd, 8000 + u16::from(bits)))),
        30 => (Sysno::Sendto, count(sys.send(fd, &buf))),
        31 => (Sysno::Recvfrom, count(sys.recv(fd, &mut buf))),
        32 => (Sysno::Socketpair, sys.socketpair().map(|(a, _)| i64::from(a))),
        33 => (Sysno::Dup, sys.dup(fd).map(i64::from)),
        34 => (Sysno::Dup2, sys.dup2(fd, fd2).map(i64::from)),
        35 => (Sysno::Getpid, sys.getpid().map(i64::from)),
        36 => (Sysno::Getuid, sys.getuid().map(i64::from)),
        37 => (Sysno::Setuid, zero(sys.setuid(fd2 as u32))),
        38 => (Sysno::Write, count(sys.print("audited"))),
        39 => (Sysno::ClockGettime, sys.clock_gettime().map(|ns| ns as i64)),
        _ => (Sysno::Sendfile, count(sys.sendfile(fd, fd2, len))),
    })
}

/// kaudit's `audit_log_end` runs at the exit of every ruled syscall,
/// failed calls included. With every syscall ruled, each `Sys` call on a
/// `KernelSys` adds exactly one record carrying its syscall and its
/// result (the value, or the negative errno); user-memory access and
/// compute add none. (`ioctl` is left out: `Sys`'s default answers it
/// without entering the kernel.)
#[test]
fn syscall_audit_one_record_per_ruled_exit() {
    use veil::prelude::*;
    use veil_os::audit::AuditMode;
    use veil_os::syscall::Sysno;
    use veil_snp::mem::PAGE_SIZE;
    let call = tuple4(
        usizes(0..41),
        tuple2(ints(-1..10), ints(-1..10)),
        tuple2(usizes(0..SYS_PATHS.len()), usizes(0..SYS_PATHS.len())),
        usizes(0..4).map(|halves| halves * PAGE_SIZE / 2),
    )
    .map(|(op, (fd, fd2), (path, path2), len)| SysCall { op, fd, fd2, path, path2, len });
    check("syscall_audit_one_record_per_ruled_exit", 48, &call.vec_of(1..48), |calls| {
        let mut cvm = CvmBuilder::new().frames(1024).vcpus(1).build().unwrap();
        cvm.kernel.audit.mode = AuditMode::Kaudit;
        cvm.kernel.audit.rules = Sysno::ALL.into_iter().collect();
        let pid = cvm.spawn();
        let mut sys = cvm.sys(pid);
        let mut mapped = Vec::new();
        for call in &calls {
            let before = sys.kernel.audit.kaudit_log.len();
            let audited = run_sys_call(&mut sys, call, &mut mapped);
            let log = &sys.kernel.audit.kaudit_log;
            let Some((sysno, result)) = audited else {
                prop_assert!(log.len() == before, "{call:?} is no syscall but left a record");
                continue;
            };
            prop_assert!(
                log.len() == before + 1,
                "{call:?} ({sysno}) left {} records",
                log.len() - before
            );
            let rec = &log[before];
            prop_assert_eq!(
                (rec.sysno, rec.ret),
                (sysno, result.unwrap_or_else(|e| e.as_neg_ret()))
            );
        }
        Ok(())
    });
}
