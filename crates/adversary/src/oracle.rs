//! The reference RMP oracle: a naive, allocation-happy, obviously-
//! correct model of per-page validation state and VMPL permission
//! masks.
//!
//! The oracle re-states the architectural rules of §3/§5.1 of the paper
//! in the most literal form possible — one `BTreeMap` entry per page,
//! cloned on every lookup, no cycle accounting, no trace. It
//! deliberately does **not** model hypervisor policy behaviour (switch
//! routing, interrupt relay), page tables, or VMSA register contents;
//! the executor checks those through other channels (virtual accesses
//! are checked against the oracle's verdict on the frame the hardware
//! walk lands on). What it *does* model, it models with the machine's
//! exact error precedence, so the differential harness can demand
//! verdict equality down to the `NpfCause`.

use std::collections::{BTreeMap, BTreeSet};
use veil_snp::fault::{HaltReason, NestedPageFault, NpfCause, SnpError};
use veil_snp::perms::{Access, Vmpl, VmplPerms};

/// Page assignment state, mirroring `veil_snp::rmp::PageState`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PageKind {
    /// Shared with the hypervisor.
    Shared,
    /// Assigned to the guest, not yet validated.
    Assigned,
    /// Validated private guest memory.
    Validated,
}

/// The oracle's belief about one page.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OraclePage {
    /// Assignment state.
    pub kind: PageKind,
    /// Page holds a VMSA (the RMP attribute bit — sticky across
    /// invalidation, exactly like the hardware flag).
    pub vmsa: bool,
    /// Permission mask per VMPL.
    pub perms: [VmplPerms; 4],
}

impl OraclePage {
    fn shared() -> Self {
        OraclePage { kind: PageKind::Shared, vmsa: false, perms: [VmplPerms::all(); 4] }
    }
}

/// The reference model of the whole RMP plus the halt latch.
#[derive(Debug, Clone)]
pub struct RmpOracle {
    frames: u64,
    pages: BTreeMap<u64, OraclePage>,
    live_vmsas: BTreeSet<u64>,
    halted: Option<HaltReason>,
}

impl RmpOracle {
    /// A fresh oracle: every page hypervisor-shared, nothing halted.
    pub fn new(frames: u64) -> Self {
        let pages = (0..frames).map(|gfn| (gfn, OraclePage::shared())).collect();
        RmpOracle { frames, pages, live_vmsas: BTreeSet::new(), halted: None }
    }

    /// Number of modelled frames.
    pub fn frames(&self) -> u64 {
        self.frames
    }

    /// A copy of the oracle's belief about `gfn` (`None` out of range).
    pub fn page(&self, gfn: u64) -> Option<OraclePage> {
        self.pages.get(&gfn).cloned()
    }

    /// VMSAs the oracle believes are live (usable for `VMRUN`).
    pub fn live_vmsas(&self) -> &BTreeSet<u64> {
        &self.live_vmsas
    }

    /// The halt latch.
    pub fn halted(&self) -> Option<&HaltReason> {
        self.halted.as_ref()
    }

    /// Forces the halt latch (first reason wins, like the machine's) —
    /// used by the executor to import halts from flows the oracle does
    /// not model (e.g. the interrupt-relay attack).
    pub fn sync_halt(&mut self, reason: Option<&HaltReason>) {
        if self.halted.is_none() {
            self.halted = reason.cloned();
        }
    }

    fn ensure_running(&self) -> Result<(), SnpError> {
        match &self.halted {
            Some(r) => Err(SnpError::Halted(r.clone())),
            None => Ok(()),
        }
    }

    /// The architectural access check, restated naively.
    fn check(&self, gfn: u64, vmpl: Vmpl, access: Access) -> Result<(), NestedPageFault> {
        let fault = |cause| NestedPageFault { gfn, vmpl, access, cause };
        let page = match self.page(gfn) {
            Some(p) => p,
            None => return Err(fault(NpfCause::OutOfRange)),
        };
        match page.kind {
            PageKind::Shared => Ok(()),
            PageKind::Assigned => Err(fault(NpfCause::NotValidated)),
            PageKind::Validated => {
                if page.vmsa {
                    return Err(fault(NpfCause::VmsaImmutable));
                }
                if page.perms[vmpl.index()].contains(access.required_perm()) {
                    Ok(())
                } else {
                    Err(fault(NpfCause::VmplDenied))
                }
            }
        }
    }

    /// Expected verdict for a single-page guest access at `gfn`.
    pub fn guest_access(&self, vmpl: Vmpl, gfn: u64, access: Access) -> Result<(), SnpError> {
        if gfn >= self.frames {
            return Err(SnpError::Npf(NestedPageFault {
                gfn,
                vmpl,
                access,
                cause: NpfCause::OutOfRange,
            }));
        }
        self.check(gfn, vmpl, access).map_err(SnpError::from)
    }

    /// Expected verdict for a hypervisor access at `gfn`.
    pub fn hv_access(&self, gfn: u64) -> Result<(), SnpError> {
        if gfn >= self.frames {
            return Err(SnpError::OutOfRange { gfn });
        }
        if self.page(gfn).expect("in range").kind != PageKind::Shared {
            return Err(SnpError::Npf(NestedPageFault {
                gfn,
                vmpl: Vmpl::Vmpl0,
                access: Access::Write,
                cause: NpfCause::NotAssigned,
            }));
        }
        Ok(())
    }

    /// Hypervisor-side `RMPUPDATE` to private.
    pub fn assign(&mut self, gfn: u64) -> Result<(), SnpError> {
        if gfn >= self.frames {
            return Err(SnpError::OutOfRange { gfn });
        }
        let mut page = self.page(gfn).expect("in range");
        if page.kind != PageKind::Shared {
            return Err(SnpError::ValidationMismatch { gfn });
        }
        page.kind = PageKind::Assigned;
        page.perms = [VmplPerms::all(), VmplPerms::empty(), VmplPerms::empty(), VmplPerms::empty()];
        page.vmsa = false;
        self.pages.insert(gfn, page);
        Ok(())
    }

    /// Hypervisor-side `RMPUPDATE` back to shared.
    pub fn reclaim(&mut self, gfn: u64) -> Result<(), SnpError> {
        if gfn >= self.frames {
            return Err(SnpError::OutOfRange { gfn });
        }
        let mut page = self.page(gfn).expect("in range");
        if page.vmsa {
            return Err(SnpError::NotAVmsa { gfn });
        }
        page.kind = PageKind::Shared;
        page.perms = [VmplPerms::all(); 4];
        self.pages.insert(gfn, page);
        self.live_vmsas.remove(&gfn);
        Ok(())
    }

    /// Guest `PVALIDATE`.
    pub fn pvalidate(
        &mut self,
        executing: Vmpl,
        gfn: u64,
        validated: bool,
    ) -> Result<(), SnpError> {
        self.ensure_running()?;
        if executing != Vmpl::Vmpl0 {
            return Err(SnpError::InsufficientVmpl { executing, target: Vmpl::Vmpl0 });
        }
        if gfn >= self.frames {
            return Err(SnpError::OutOfRange { gfn });
        }
        let mut page = self.page(gfn).expect("in range");
        page.kind = match (page.kind, validated) {
            (PageKind::Assigned, true) => PageKind::Validated,
            (PageKind::Validated, false) => PageKind::Assigned,
            _ => return Err(SnpError::ValidationMismatch { gfn }),
        };
        self.pages.insert(gfn, page);
        Ok(())
    }

    /// Guest `RMPADJUST`.
    pub fn rmpadjust(
        &mut self,
        executing: Vmpl,
        gfn: u64,
        target: Vmpl,
        perms: VmplPerms,
    ) -> Result<(), SnpError> {
        self.ensure_running()?;
        if !executing.dominates(target) {
            return Err(SnpError::InsufficientVmpl { executing, target });
        }
        let mut page = self.page(gfn).ok_or(SnpError::OutOfRange { gfn })?;
        if page.kind != PageKind::Validated {
            return Err(SnpError::Npf(NestedPageFault {
                gfn,
                vmpl: executing,
                access: Access::Write,
                cause: NpfCause::NotValidated,
            }));
        }
        if !page.perms[executing.index()].contains(perms) {
            return Err(SnpError::PermEscalation);
        }
        page.perms[target.index()] = perms;
        self.pages.insert(gfn, page);
        Ok(())
    }

    /// Guest `RMPADJUST` with the VMSA attribute.
    pub fn vmsa_create(&mut self, executing: Vmpl, gfn: u64) -> Result<(), SnpError> {
        self.ensure_running()?;
        if executing != Vmpl::Vmpl0 {
            return Err(SnpError::InsufficientVmpl { executing, target: Vmpl::Vmpl0 });
        }
        if gfn >= self.frames {
            return Err(SnpError::OutOfRange { gfn });
        }
        let mut page = self.page(gfn).expect("in range");
        if page.kind != PageKind::Validated {
            return Err(SnpError::ValidationMismatch { gfn });
        }
        if self.live_vmsas.contains(&gfn) {
            return Err(SnpError::NotAVmsa { gfn });
        }
        page.vmsa = true;
        self.pages.insert(gfn, page);
        self.live_vmsas.insert(gfn);
        Ok(())
    }

    /// VMSA teardown. Mirrors the machine's quirk precisely: the RMP
    /// attribute bit only clears when the page is still `Validated` — a
    /// VMSA invalidated first leaves the bit stuck.
    pub fn vmsa_destroy(&mut self, executing: Vmpl, gfn: u64) -> Result<(), SnpError> {
        if executing != Vmpl::Vmpl0 {
            return Err(SnpError::InsufficientVmpl { executing, target: Vmpl::Vmpl0 });
        }
        if !self.live_vmsas.remove(&gfn) {
            return Err(SnpError::NotAVmsa { gfn });
        }
        let mut page = self.page(gfn).expect("live VMSA is in range");
        if page.kind == PageKind::Validated {
            page.vmsa = false;
            self.pages.insert(gfn, page);
        }
        Ok(())
    }

    /// The `VMGEXIT` entry gate: errors (and latches the halt) when the
    /// machine is already down or the GHCB page is no longer readable by
    /// the hypervisor — §6.2's "crash on an attempted domain switch".
    pub fn exit_gate(&mut self, ghcb_gfn: u64) -> Result<(), HaltReason> {
        if let Some(r) = &self.halted {
            return Err(r.clone());
        }
        let shared = self.page(ghcb_gfn).map(|p| p.kind == PageKind::Shared).unwrap_or(false);
        if !shared {
            let reason =
                HaltReason::SecurityViolation("GHCB page is not hypervisor-accessible".into());
            self.halted = Some(reason.clone());
            return Err(reason);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn validated(oracle: &mut RmpOracle, gfn: u64) {
        oracle.assign(gfn).unwrap();
        oracle.pvalidate(Vmpl::Vmpl0, gfn, true).unwrap();
    }

    #[test]
    fn fresh_pages_are_shared_and_open() {
        let oracle = RmpOracle::new(4);
        for vmpl in Vmpl::ALL {
            assert!(oracle.guest_access(vmpl, 0, Access::Write).is_ok());
        }
        assert!(oracle.hv_access(0).is_ok());
        assert!(matches!(oracle.guest_access(Vmpl::Vmpl0, 9, Access::Read), Err(SnpError::Npf(_))));
    }

    #[test]
    fn validation_flow_and_vmpl_masks() {
        let mut oracle = RmpOracle::new(4);
        validated(&mut oracle, 1);
        assert!(oracle.guest_access(Vmpl::Vmpl0, 1, Access::Write).is_ok());
        assert!(matches!(
            oracle.guest_access(Vmpl::Vmpl3, 1, Access::Read),
            Err(SnpError::Npf(NestedPageFault { cause: NpfCause::VmplDenied, .. }))
        ));
        oracle.rmpadjust(Vmpl::Vmpl0, 1, Vmpl::Vmpl3, VmplPerms::r()).unwrap();
        assert!(oracle.guest_access(Vmpl::Vmpl3, 1, Access::Read).is_ok());
        assert_eq!(
            oracle.rmpadjust(Vmpl::Vmpl3, 1, Vmpl::Vmpl0, VmplPerms::all()),
            Err(SnpError::InsufficientVmpl { executing: Vmpl::Vmpl3, target: Vmpl::Vmpl0 })
        );
    }

    #[test]
    fn vmsa_lifecycle_including_stuck_bit() {
        let mut oracle = RmpOracle::new(4);
        validated(&mut oracle, 2);
        oracle.vmsa_create(Vmpl::Vmpl0, 2).unwrap();
        assert!(matches!(
            oracle.guest_access(Vmpl::Vmpl0, 2, Access::Read),
            Err(SnpError::Npf(NestedPageFault { cause: NpfCause::VmsaImmutable, .. }))
        ));
        assert_eq!(oracle.reclaim(2), Err(SnpError::NotAVmsa { gfn: 2 }));
        // Invalidate first: the attribute bit then survives teardown.
        oracle.pvalidate(Vmpl::Vmpl0, 2, false).unwrap();
        oracle.vmsa_destroy(Vmpl::Vmpl0, 2).unwrap();
        assert!(oracle.page(2).unwrap().vmsa, "attribute bit must stay stuck");
        assert!(oracle.live_vmsas().is_empty());
        assert_eq!(oracle.reclaim(2), Err(SnpError::NotAVmsa { gfn: 2 }));
    }

    #[test]
    fn exit_gate_latches_halt_on_private_ghcb() {
        let mut oracle = RmpOracle::new(4);
        assert!(oracle.exit_gate(1).is_ok());
        oracle.assign(1).unwrap();
        assert!(oracle.exit_gate(1).is_err());
        // Latched: even a pvalidate now reports the halt.
        assert!(matches!(oracle.pvalidate(Vmpl::Vmpl0, 1, true), Err(SnpError::Halted(_))));
    }
}
