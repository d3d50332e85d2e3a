//! The adversarial op algebra and its weighted generation strategy.
//!
//! Every op is something an attacker-controlled party can attempt
//! through the public machine/hypervisor surface: guest accesses from
//! any VMPL, the RMP instruction set, page-state-change and
//! domain-switch GHCB flows, hostile-hypervisor policy flips,
//! page-table churn under virtual accesses, and hostile attestation
//! derivations thrown at the chain verifier. Ops carry raw indices (gfns,
//! VA slots, permission bits) rather than references so a failing
//! sequence prints as a self-contained, replayable program.

use veil_snp::perms::Vmpl;
use veil_testkit::prop::{self, Strategy};
use veil_testkit::TestRng;

/// Guest-physical frames in the fuzzing world.
pub const FRAMES: u64 = 64;
/// Gfns are drawn from `0..GFN_SPAN`: two past the end so out-of-range
/// verdicts stay reachable.
pub const GFN_SPAN: u64 = FRAMES + 2;
/// Number of virtual-address slots the map/unmap/protect ops cycle
/// through.
pub const VA_SLOTS: u64 = 8;
/// Number of data frames reserved for mapping.
pub const DATA_FRAMES: usize = 6;

/// One [`super::HvPolicy`](veil_hv::HvPolicy) knob an op can flip.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyKnob {
    /// `relay_interrupts_to_unt`.
    RelayInterrupts,
    /// `tamper_vmsa_on_switch`.
    TamperVmsa,
    /// `enforce_enclave_ghcb_scope`.
    EnclaveGhcbScope,
    /// `refuse_switches`.
    RefuseSwitches,
    /// `misroute_switch_to = Some(Vmpl3)` when on, `None` when off.
    MisrouteSwitches,
}

impl PolicyKnob {
    /// Every knob, for generation.
    pub const ALL: [PolicyKnob; 5] = [
        PolicyKnob::RelayInterrupts,
        PolicyKnob::TamperVmsa,
        PolicyKnob::EnclaveGhcbScope,
        PolicyKnob::RefuseSwitches,
        PolicyKnob::MisrouteSwitches,
    ];
}

/// One step of an attack sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdversaryOp {
    /// Checked 8-byte guest read at `gfn`'s base from `vmpl`.
    GuestRead {
        /// Executing privilege level.
        vmpl: Vmpl,
        /// Target frame.
        gfn: u64,
    },
    /// Checked 8-byte guest write.
    GuestWrite {
        /// Executing privilege level.
        vmpl: Vmpl,
        /// Target frame.
        gfn: u64,
    },
    /// Instruction-fetch permission probe (`user` picks CPL-3 vs CPL-0).
    GuestExec {
        /// Executing privilege level.
        vmpl: Vmpl,
        /// Fetch from ring 3 (`true`) or ring 0.
        user: bool,
        /// Target frame.
        gfn: u64,
    },
    /// Hypervisor read (ciphertext outside shared pages).
    HvRead {
        /// Target frame.
        gfn: u64,
    },
    /// Hypervisor write.
    HvWrite {
        /// Target frame.
        gfn: u64,
    },
    /// Guest `PVALIDATE` from an arbitrary VMPL.
    Pvalidate {
        /// Executing privilege level.
        vmpl: Vmpl,
        /// Target frame.
        gfn: u64,
        /// Validate (`true`) or invalidate.
        validate: bool,
    },
    /// Guest `RMPADJUST`.
    Rmpadjust {
        /// Executing privilege level.
        executing: Vmpl,
        /// Target frame.
        gfn: u64,
        /// VMPL whose mask is set.
        target: Vmpl,
        /// Raw permission bits (low nibble).
        perms: u8,
    },
    /// Hypervisor-side `RMPUPDATE` to private.
    Assign {
        /// Target frame.
        gfn: u64,
    },
    /// Hypervisor-side `RMPUPDATE` back to shared.
    Reclaim {
        /// Target frame.
        gfn: u64,
    },
    /// Page-state change through the GHCB protocol (write request from
    /// `vmpl`, then `VMGEXIT`).
    Psc {
        /// VMPL writing the GHCB request.
        vmpl: Vmpl,
        /// Frame whose state should change.
        gfn: u64,
        /// Assign (`true`) or reclaim.
        to_private: bool,
    },
    /// Guest `RMPADJUST` with the VMSA attribute.
    VmsaCreate {
        /// Executing privilege level.
        executing: Vmpl,
        /// Frame to convert.
        gfn: u64,
        /// VMPL the new VMSA would run.
        target: Vmpl,
    },
    /// VMSA teardown attempt.
    VmsaDestroy {
        /// Executing privilege level.
        executing: Vmpl,
        /// Frame to tear down.
        gfn: u64,
    },
    /// Domain-switch request through the GHCB protocol.
    SwitchReq {
        /// VMPL writing the GHCB request.
        vmpl: Vmpl,
        /// Requested destination domain.
        target: Vmpl,
        /// Issue the exit through the user-mapped GHCB path.
        user_ghcb: bool,
    },
    /// Asynchronous (interrupt) exit on VCPU 0.
    AutoExit,
    /// Flip one hostile-hypervisor policy knob.
    SetPolicy {
        /// Which knob.
        knob: PolicyKnob,
        /// New value.
        on: bool,
    },
    /// Map a data frame at a VA slot in the VMPL-3 address space.
    Map {
        /// VA slot index (`0..VA_SLOTS`).
        slot: u64,
        /// Index into the data-frame pool.
        frame: usize,
        /// Writable user mapping (`true`) or read-only.
        writable: bool,
    },
    /// Unmap a VA slot.
    Unmap {
        /// VA slot index.
        slot: u64,
    },
    /// Change a VA slot's PTE protection.
    Protect {
        /// VA slot index.
        slot: u64,
        /// Writable user mapping (`true`) or read-only.
        writable: bool,
    },
    /// Virtual read through the VMPL-3 address space (ring 3).
    ReadVirt {
        /// VA slot index.
        slot: u64,
    },
    /// Virtual write through the VMPL-3 address space (ring 3).
    WriteVirt {
        /// VA slot index.
        slot: u64,
        /// Byte pattern to store.
        byte: u8,
    },
    /// Fills the shared ring page with a packed PSC list (batched gate
    /// path): `count` entries `(first_gfn + i) | to_private << 63`,
    /// written from `vmpl`. Malformed indices come free — `first_gfn`
    /// ranges past the end of guest memory.
    RingFill {
        /// VMPL writing the list.
        vmpl: Vmpl,
        /// First gfn packed into the list.
        first_gfn: u64,
        /// Entry count (executor clamps into one page).
        count: u64,
        /// Pack assign (`true`) or reclaim entries.
        to_private: bool,
    },
    /// Host-side byte poke into the ring page — the "mutate the ring
    /// between fill and drain" TOCTOU attack, sequenced freely between
    /// [`AdversaryOp::RingFill`] and [`AdversaryOp::PscBatchReq`].
    RingCorrupt {
        /// Byte offset inside the ring page.
        offset: u64,
        /// Byte value to plant.
        value: u8,
    },
    /// Doorbell exit: request a relayed switch advertising `depth`
    /// queued ring entries. Replay is the sequence repeating the op;
    /// `target` ranges past the last valid VMPL index.
    DoorbellRing {
        /// VMPL writing the GHCB request.
        vmpl: Vmpl,
        /// Raw target VMPL index (may be invalid).
        target: u64,
        /// Advisory ring depth advertised to the host.
        depth: u64,
    },
    /// Batched page-state change consuming `count` entries at
    /// `list_gfn` — hostile counts (past `PSC_BATCH_MAX`) and hostile
    /// list locations (private or out-of-range pages) included.
    PscBatchReq {
        /// VMPL writing the GHCB request.
        vmpl: Vmpl,
        /// Page holding the packed entry list.
        list_gfn: u64,
        /// Entry count (unclamped: oversized batches must be refused).
        count: u64,
    },
    /// Forge an attestation chain report with one hostile derivation
    /// (tamper point selected by `tamper` modulo the tamper table) and
    /// demand the chain verifier names the *exact* error for it.
    ForgeReport {
        /// Tamper-point selector (executor reduces modulo the table).
        tamper: u8,
    },
    /// Present an honest attestation report twice: the verifier must
    /// accept the first presentation and refuse the replay.
    ReplayStaleReport {
        /// Byte the challenge nonce is filled with.
        nonce_byte: u8,
    },
    /// Boot a CVM with the firmware measurement stage armed and one
    /// boot-image byte mutated: the firmware must refuse pre-launch.
    BootTamperedImage {
        /// Boot-image page index (executor wraps into the image).
        page: u8,
        /// Byte offset inside that page (executor wraps).
        offset: u8,
    },
}

impl AdversaryOp {
    /// Every variant name, in declaration order — for coverage audits
    /// that must break at compile time when a variant is added.
    pub const VARIANT_NAMES: [&'static str; 27] = [
        "GuestRead",
        "GuestWrite",
        "GuestExec",
        "HvRead",
        "HvWrite",
        "Pvalidate",
        "Rmpadjust",
        "Assign",
        "Reclaim",
        "Psc",
        "VmsaCreate",
        "VmsaDestroy",
        "SwitchReq",
        "AutoExit",
        "SetPolicy",
        "Map",
        "Unmap",
        "Protect",
        "ReadVirt",
        "WriteVirt",
        "RingFill",
        "RingCorrupt",
        "DoorbellRing",
        "PscBatchReq",
        "ForgeReport",
        "ReplayStaleReport",
        "BootTamperedImage",
    ];

    /// The variant's name, payload-free (matches [`Self::VARIANT_NAMES`]).
    pub fn variant_name(&self) -> &'static str {
        match self {
            AdversaryOp::GuestRead { .. } => "GuestRead",
            AdversaryOp::GuestWrite { .. } => "GuestWrite",
            AdversaryOp::GuestExec { .. } => "GuestExec",
            AdversaryOp::HvRead { .. } => "HvRead",
            AdversaryOp::HvWrite { .. } => "HvWrite",
            AdversaryOp::Pvalidate { .. } => "Pvalidate",
            AdversaryOp::Rmpadjust { .. } => "Rmpadjust",
            AdversaryOp::Assign { .. } => "Assign",
            AdversaryOp::Reclaim { .. } => "Reclaim",
            AdversaryOp::Psc { .. } => "Psc",
            AdversaryOp::VmsaCreate { .. } => "VmsaCreate",
            AdversaryOp::VmsaDestroy { .. } => "VmsaDestroy",
            AdversaryOp::SwitchReq { .. } => "SwitchReq",
            AdversaryOp::AutoExit => "AutoExit",
            AdversaryOp::SetPolicy { .. } => "SetPolicy",
            AdversaryOp::Map { .. } => "Map",
            AdversaryOp::Unmap { .. } => "Unmap",
            AdversaryOp::Protect { .. } => "Protect",
            AdversaryOp::ReadVirt { .. } => "ReadVirt",
            AdversaryOp::WriteVirt { .. } => "WriteVirt",
            AdversaryOp::RingFill { .. } => "RingFill",
            AdversaryOp::RingCorrupt { .. } => "RingCorrupt",
            AdversaryOp::DoorbellRing { .. } => "DoorbellRing",
            AdversaryOp::PscBatchReq { .. } => "PscBatchReq",
            AdversaryOp::ForgeReport { .. } => "ForgeReport",
            AdversaryOp::ReplayStaleReport { .. } => "ReplayStaleReport",
            AdversaryOp::BootTamperedImage { .. } => "BootTamperedImage",
        }
    }
}

/// Weighted choice: each branch is drawn with probability proportional
/// to its weight. Like [`prop::one_of`] but non-uniform, so the hot
/// attack surfaces (accesses, `RMPADJUST`, `PVALIDATE`) dominate the
/// sequence mix without starving the rare flows.
fn weighted<T: 'static>(branches: Vec<(u32, Strategy<T>)>) -> Strategy<T> {
    assert!(!branches.is_empty(), "weighted: no branches");
    let total: u32 = branches.iter().map(|(w, _)| *w).sum();
    assert!(total > 0, "weighted: zero total weight");
    Strategy::from_fn(move |rng: &mut TestRng| {
        let mut pick = rng.below(total as u64) as u32;
        for (w, s) in &branches {
            if pick < *w {
                return s.generate(rng);
            }
            pick -= *w;
        }
        unreachable!("pick below total weight")
    })
}

fn vmpls() -> Strategy<Vmpl> {
    prop::usizes(0..4).map(|i| Vmpl::from_index(i).expect("index in range"))
}

fn gfns() -> Strategy<u64> {
    prop::u64s(0..GFN_SPAN)
}

fn slots() -> Strategy<u64> {
    prop::u64s(0..VA_SLOTS)
}

/// The weighted strategy over single ops.
pub fn op_strategy() -> Strategy<AdversaryOp> {
    let access = |mk: fn(Vmpl, u64) -> AdversaryOp| {
        prop::tuple2(vmpls(), gfns()).map(move |(vmpl, gfn)| mk(vmpl, gfn))
    };
    weighted(vec![
        (10, access(|vmpl, gfn| AdversaryOp::GuestRead { vmpl, gfn })),
        (10, access(|vmpl, gfn| AdversaryOp::GuestWrite { vmpl, gfn })),
        (
            6,
            prop::tuple3(vmpls(), prop::bools(), gfns())
                .map(|(vmpl, user, gfn)| AdversaryOp::GuestExec { vmpl, user, gfn }),
        ),
        (4, gfns().map(|gfn| AdversaryOp::HvRead { gfn })),
        (4, gfns().map(|gfn| AdversaryOp::HvWrite { gfn })),
        (
            8,
            prop::tuple3(vmpls(), gfns(), prop::bools())
                .map(|(vmpl, gfn, validate)| AdversaryOp::Pvalidate { vmpl, gfn, validate }),
        ),
        (
            10,
            prop::tuple4(vmpls(), gfns(), vmpls(), prop::u8s(0..16)).map(
                |(executing, gfn, target, perms)| AdversaryOp::Rmpadjust {
                    executing,
                    gfn,
                    target,
                    perms,
                },
            ),
        ),
        (6, gfns().map(|gfn| AdversaryOp::Assign { gfn })),
        (6, gfns().map(|gfn| AdversaryOp::Reclaim { gfn })),
        (
            5,
            prop::tuple3(vmpls(), gfns(), prop::bools())
                .map(|(vmpl, gfn, to_private)| AdversaryOp::Psc { vmpl, gfn, to_private }),
        ),
        (
            4,
            prop::tuple3(vmpls(), gfns(), vmpls())
                .map(|(executing, gfn, target)| AdversaryOp::VmsaCreate { executing, gfn, target }),
        ),
        (
            4,
            prop::tuple2(vmpls(), gfns())
                .map(|(executing, gfn)| AdversaryOp::VmsaDestroy { executing, gfn }),
        ),
        (
            3,
            prop::tuple3(vmpls(), vmpls(), prop::bools()).map(|(vmpl, target, user_ghcb)| {
                AdversaryOp::SwitchReq { vmpl, target, user_ghcb }
            }),
        ),
        (2, prop::bools().map(|_| AdversaryOp::AutoExit)),
        (
            3,
            prop::tuple2(prop::usizes(0..PolicyKnob::ALL.len()), prop::bools())
                .map(|(i, on)| AdversaryOp::SetPolicy { knob: PolicyKnob::ALL[i], on }),
        ),
        (
            4,
            prop::tuple3(slots(), prop::usizes(0..DATA_FRAMES), prop::bools())
                .map(|(slot, frame, writable)| AdversaryOp::Map { slot, frame, writable }),
        ),
        (3, slots().map(|slot| AdversaryOp::Unmap { slot })),
        (
            3,
            prop::tuple2(slots(), prop::bools())
                .map(|(slot, writable)| AdversaryOp::Protect { slot, writable }),
        ),
        (3, slots().map(|slot| AdversaryOp::ReadVirt { slot })),
        (
            3,
            prop::tuple2(slots(), prop::any_u8())
                .map(|(slot, byte)| AdversaryOp::WriteVirt { slot, byte }),
        ),
        (
            4,
            prop::tuple4(vmpls(), gfns(), prop::u64s(1..20), prop::bools()).map(
                |(vmpl, first_gfn, count, to_private)| AdversaryOp::RingFill {
                    vmpl,
                    first_gfn,
                    count,
                    to_private,
                },
            ),
        ),
        (
            3,
            prop::tuple2(prop::u64s(0..4096), prop::any_u8())
                .map(|(offset, value)| AdversaryOp::RingCorrupt { offset, value }),
        ),
        (
            4,
            prop::tuple3(vmpls(), prop::u64s(0..6), prop::u64s(0..40))
                .map(|(vmpl, target, depth)| AdversaryOp::DoorbellRing { vmpl, target, depth }),
        ),
        (
            4,
            prop::tuple3(
                vmpls(),
                gfns(),
                // Mostly in-page counts, with a band straddling
                // PSC_BATCH_MAX so the oversized-batch refusal is hot.
                prop::one_of(vec![prop::u64s(0..24), prop::u64s(500..520)]),
            )
            .map(|(vmpl, list_gfn, count)| AdversaryOp::PscBatchReq {
                vmpl,
                list_gfn,
                count,
            }),
        ),
        (3, prop::any_u8().map(|tamper| AdversaryOp::ForgeReport { tamper })),
        (2, prop::any_u8().map(|nonce_byte| AdversaryOp::ReplayStaleReport { nonce_byte })),
        (
            2,
            prop::tuple2(prop::any_u8(), prop::any_u8())
                .map(|(page, offset)| AdversaryOp::BootTamperedImage { page, offset }),
        ),
    ])
}

/// Sequences of up to `max_ops` ops (at least one), with the prefix-
/// ladder shrinking of [`Strategy::vec_of`].
pub fn sequence_strategy(max_ops: usize) -> Strategy<Vec<AdversaryOp>> {
    assert!(max_ops >= 1, "need at least one op");
    op_strategy().vec_of(1..max_ops + 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weighted_respects_weights_roughly() {
        let s = weighted(vec![(9, Strategy::from_fn(|_| 1u32)), (1, Strategy::from_fn(|_| 2u32))]);
        let mut rng = TestRng::from_seed(7);
        let ones = (0..1000).filter(|_| s.generate(&mut rng) == 1).count();
        assert!((800..=980).contains(&ones), "ones = {ones}");
    }

    #[test]
    fn sequences_generate_within_bounds() {
        let s = sequence_strategy(50);
        let mut rng = TestRng::from_seed(3);
        for _ in 0..50 {
            let ops = s.generate(&mut rng);
            assert!(!ops.is_empty() && ops.len() <= 50);
        }
    }
}
