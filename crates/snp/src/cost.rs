//! Deterministic cycle-cost model.
//!
//! The paper's evaluation (§9) reports costs in cycles measured with
//! `RDTSC` on an EPYC 7313P. The simulation replaces the timestamp counter
//! with an explicit account: every modelled operation charges a calibrated
//! cycle amount, attributed to a category so that stacked-bar breakdowns
//! (Fig. 5's syscall-redirect vs enclave-exit split) can be regenerated.
//!
//! Calibration sources (all from the paper):
//! * hypervisor-relayed domain switch: **7,135 cycles** (§9.1);
//! * plain `VMCALL` exit on a non-SNP VM: **~1,100 cycles** (§9.1);
//! * module load/unload delta under VeilS-KCI: **~55k cycles** for a
//!   24 KiB module — dominated by `RMPADJUST` + page touch per page (CS1);
//! * boot-time delta: ~2 s, >70% spent in `RMPADJUST` over all pages
//!   (§9.1), which pins `rmpadjust_page + page_touch` given the frame
//!   count and clock.

use std::fmt;

/// Simulated core clock (cycles per second) used to convert cycle counts
/// into rates comparable with the paper's per-second figures.
pub const CLOCK_HZ: u64 = 3_000_000_000;

/// Categories to which cycles are attributed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CostCategory {
    /// Application-level computation.
    Compute,
    /// Kernel servicing of syscalls (native path).
    KernelService,
    /// Hypervisor-relayed domain switches (VMGEXIT+VMENTER round trips).
    DomainSwitch,
    /// Enclave entry/exit transitions (subset of domain switches performed
    /// for enclave crossings; tracked separately for Fig. 5).
    EnclaveExit,
    /// Deep-copying syscall arguments/results across the enclave boundary.
    SyscallCopy,
    /// `RMPADJUST` executions including the page touch.
    Rmpadjust,
    /// `PVALIDATE` executions.
    Pvalidate,
    /// Audit-log production and relay.
    AuditLog,
    /// Everything else (boot bookkeeping, crypto in trusted services...).
    Other,
}

impl CostCategory {
    /// All categories, in display order.
    pub const ALL: [CostCategory; 9] = [
        CostCategory::Compute,
        CostCategory::KernelService,
        CostCategory::DomainSwitch,
        CostCategory::EnclaveExit,
        CostCategory::SyscallCopy,
        CostCategory::Rmpadjust,
        CostCategory::Pvalidate,
        CostCategory::AuditLog,
        CostCategory::Other,
    ];

    fn index(self) -> usize {
        Self::ALL.iter().position(|c| *c == self).expect("category in ALL")
    }
}

/// The calibrated constants. All values are cycles unless noted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CostModel {
    /// Register-state save on `VMGEXIT` (SEV-SNP encrypts + stores VMSA).
    pub vmgexit_save: u64,
    /// Hypervisor request handling between exit and re-entry.
    pub hv_handle: u64,
    /// Register-state restore on `VMENTER`.
    pub vmenter_restore: u64,
    /// A plain `VMCALL` exit+entry on a non-SNP VM (baseline in §9.1).
    pub vmcall_plain: u64,
    /// One `RMPADJUST` instruction.
    pub rmpadjust: u64,
    /// The memory access to every page that `RMPADJUST` requires (§9.1:
    /// "this results in a memory access to every page before adjusting
    /// permissions" — the dominant boot cost). Calibrated so a 6-page
    /// module costs ~55k cycles to (un)protect, matching CS1.
    pub rmpadjust_touch: u64,
    /// Touching/zeroing a fresh page on ordinary allocation paths.
    pub page_touch: u64,
    /// One `PVALIDATE` instruction.
    pub pvalidate: u64,
    /// Fixed syscall entry/exit cost inside the kernel (trap + dispatch).
    pub syscall_base: u64,
    /// Per-byte cost of copying through kernel or enclave boundaries,
    /// expressed as cycles per 64 bytes to keep integer math.
    pub copy_per_64b: u64,
    /// Producing one audit record in kaudit (format + in-memory append).
    pub audit_record: u64,
    /// VeilS-LOG extra per-record work (IDCB write + append in DomSER),
    /// *excluding* the domain switch which is charged separately.
    pub veil_log_record: u64,
    /// Native (unprotected) module load path cost per page.
    pub module_page_load: u64,
    /// SHA-256 hashing cost per 64-byte block (used for measurement costs).
    pub sha256_block: u64,
    /// Page encryption/decryption cost per page (sealed paging).
    pub crypt_page: u64,
    /// Per-queued-entry cost of a doorbell relay: each slot announced by
    /// the doorbell extends the hypervisor's hold on the VCPU (slot header
    /// inspection + bounded-drain bookkeeping before re-entry), so a
    /// deeper ring costs a longer relay. Keeps the relay-latency
    /// histogram occupancy-sensitive instead of a constant.
    pub doorbell_drain_slot: u64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            vmgexit_save: 3000,
            hv_handle: 1100,
            vmenter_restore: 3035,
            vmcall_plain: 1100,
            rmpadjust: 400,
            rmpadjust_touch: 4200,
            page_touch: 550,
            pvalidate: 150,
            syscall_base: 2200,
            copy_per_64b: 50,
            audit_record: 6500,
            veil_log_record: 800,
            module_page_load: 200_000,
            sha256_block: 90,
            crypt_page: 4200,
            doorbell_drain_slot: 260,
        }
    }
}

impl CostModel {
    /// Cost of one full hypervisor-relayed domain switch (one direction):
    /// exit, handle, re-enter a different VMSA. Calibrated to 7,135.
    pub fn domain_switch(&self) -> u64 {
        self.vmgexit_save + self.hv_handle + self.vmenter_restore
    }

    /// Cost of an `RMPADJUST` on one page including the page touch.
    pub fn rmpadjust_page(&self) -> u64 {
        self.rmpadjust + self.rmpadjust_touch
    }

    /// Cost of copying `bytes` across a boundary.
    pub fn copy(&self, bytes: usize) -> u64 {
        (bytes as u64).div_ceil(64) * self.copy_per_64b
    }

    /// Cost of hashing `bytes` with SHA-256.
    pub fn sha256(&self, bytes: usize) -> u64 {
        ((bytes as u64).div_ceil(64) + 1) * self.sha256_block
    }
}

/// Accumulated cycles, split by category.
#[derive(Debug, Clone, Default)]
pub struct CycleAccount {
    total: u64,
    by_category: [u64; CostCategory::ALL.len()],
}

impl CycleAccount {
    /// A fresh, zeroed account.
    pub fn new() -> Self {
        Self::default()
    }

    /// Charges `cycles` to `category`.
    pub fn charge(&mut self, category: CostCategory, cycles: u64) {
        self.total += cycles;
        self.by_category[category.index()] += cycles;
    }

    /// Total cycles across all categories.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Cycles attributed to `category`.
    pub fn of(&self, category: CostCategory) -> u64 {
        self.by_category[category.index()]
    }

    /// Simulated elapsed seconds at [`CLOCK_HZ`].
    pub fn seconds(&self) -> f64 {
        self.total as f64 / CLOCK_HZ as f64
    }

    /// Returns a snapshot that can later be subtracted to measure a region.
    pub fn snapshot(&self) -> CycleSnapshot {
        CycleSnapshot { total: self.total, by_category: self.by_category }
    }

    /// Difference since `snap` (panics if the account went backwards,
    /// which cannot happen through the public API).
    pub fn since(&self, snap: &CycleSnapshot) -> CycleDelta {
        let mut by_category = [0u64; CostCategory::ALL.len()];
        for (i, out) in by_category.iter_mut().enumerate() {
            *out = self.by_category[i] - snap.by_category[i];
        }
        CycleDelta { total: self.total - snap.total, by_category }
    }
}

/// A point-in-time copy of a [`CycleAccount`].
#[derive(Debug, Clone, Copy)]
pub struct CycleSnapshot {
    total: u64,
    by_category: [u64; CostCategory::ALL.len()],
}

/// Cycles spent between two snapshots.
#[derive(Debug, Clone, Copy)]
pub struct CycleDelta {
    total: u64,
    by_category: [u64; CostCategory::ALL.len()],
}

impl CycleDelta {
    /// Total cycles in the interval.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Cycles for one category in the interval.
    pub fn of(&self, category: CostCategory) -> u64 {
        self.by_category[category.index()]
    }

    /// Simulated seconds in the interval.
    pub fn seconds(&self) -> f64 {
        self.total as f64 / CLOCK_HZ as f64
    }
}

impl fmt::Display for CycleDelta {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} cycles", self.total)?;
        for c in CostCategory::ALL {
            let v = self.of(c);
            if v > 0 {
                write!(f, " {c:?}={v}")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_switch_cost_matches_paper() {
        let m = CostModel::default();
        assert_eq!(m.domain_switch(), 7135, "paper-measured switch cost");
        assert_eq!(m.vmcall_plain, 1100, "paper-measured plain VMCALL");
    }

    #[test]
    fn account_accumulates_by_category() {
        let mut acc = CycleAccount::new();
        acc.charge(CostCategory::Compute, 100);
        acc.charge(CostCategory::DomainSwitch, 50);
        acc.charge(CostCategory::Compute, 1);
        assert_eq!(acc.total(), 151);
        assert_eq!(acc.of(CostCategory::Compute), 101);
        assert_eq!(acc.of(CostCategory::DomainSwitch), 50);
        assert_eq!(acc.of(CostCategory::AuditLog), 0);
    }

    #[test]
    fn snapshots_measure_regions() {
        let mut acc = CycleAccount::new();
        acc.charge(CostCategory::Compute, 10);
        let snap = acc.snapshot();
        acc.charge(CostCategory::EnclaveExit, 7);
        acc.charge(CostCategory::Compute, 3);
        let delta = acc.since(&snap);
        assert_eq!(delta.total(), 10);
        assert_eq!(delta.of(CostCategory::EnclaveExit), 7);
        assert_eq!(delta.of(CostCategory::Compute), 3);
    }

    #[test]
    fn copy_cost_rounds_up() {
        let m = CostModel::default();
        assert_eq!(m.copy(0), 0);
        assert_eq!(m.copy(1), m.copy_per_64b);
        assert_eq!(m.copy(64), m.copy_per_64b);
        assert_eq!(m.copy(65), 2 * m.copy_per_64b);
    }

    #[test]
    fn seconds_conversion() {
        let mut acc = CycleAccount::new();
        acc.charge(CostCategory::Other, CLOCK_HZ);
        assert!((acc.seconds() - 1.0).abs() < 1e-9);
    }
}
