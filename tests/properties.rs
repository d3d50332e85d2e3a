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
    any_u8, bools, bytes, check, one_of, tuple2, tuple3, tuple4, u64s, u8s, usizes, vecs, Strategy,
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
            prop_assert_eq!(parsed.to_bytes()[..40], b[..40]);
        } else {
            prop_assert!(
                b.len() < 40 || !Sysno::ALL.iter().any(|s| s.num().to_le_bytes() == b[16..24])
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

/// LZ77 compression round-trips arbitrary data (the Fig. 5 compute
/// kernel must be *correct*, not just costed).
#[test]
fn lz77_roundtrip() {
    check("lz77_roundtrip", 64, &bytes(0..4096), |data| {
        use veil_workloads::compress::{lz77_compress, lz77_decompress};
        let c = lz77_compress(&data);
        prop_assert_eq!(lz77_decompress(&c).unwrap(), data);
        Ok(())
    });
}

/// A batched, VeilLog-audited CVM with `k` audited syscalls (file
/// creations) queued in VCPU 0's gate ring, plus the gate-request,
/// deferred-error and log-record counts from before they were issued.
fn queued_audit_cvm(k: usize) -> (veil::prelude::Cvm, [u64; 3]) {
    use veil::prelude::*;
    use veil_os::sys::OpenFlags;
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
    let mut sys = cvm.sys(pid);
    for i in 0..k {
        sys.open(&format!("/tmp/q{i}"), OpenFlags::rdwr_create()).unwrap();
    }
    assert_eq!(cvm.gate.pending_depth(0) as usize, k, "every audit record must still be queued");
    (cvm, before)
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
            let (cvm, _) = queued_audit_cvm(k);
            let valid =
                cvm.hv.machine.read(Vmpl::Vmpl3, gpa_of(ring_gfn(&cvm)), PAGE_SIZE).unwrap();
            hostile_bytes(valid).map(move |bytes| (k, bytes))
        })
        .collect();
    check("hostile_gate_ring_bytes", 160, &one_of(attacks), |(k, mut bytes)| {
        bytes.truncate(PAGE_SIZE);
        let (mut cvm, [requests, errors, records]) = queued_audit_cvm(k);
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
