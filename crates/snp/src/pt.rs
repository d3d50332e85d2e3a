//! Four-level x86-64 page tables stored in guest memory.
//!
//! Page tables are ordinary guest pages, so the RMP governs who can edit
//! them. This is the mechanism behind two Veil behaviours:
//!
//! * VeilS-ENC *clones* an enclave's page tables into VMPL-1-protected
//!   frames (§6.2); the OS keeps pointers to them but any write attempt
//!   faults — exactly the attack validated in §8.3.
//! * The kernel manages its own and its processes' tables in VMPL-3
//!   frames as usual, preserving commodity-kernel compatibility (§5.3).
//!
//! The walker itself plays "hardware": translations read PTE frames raw
//! (the MMU is not subject to VMPL masks), while the *final* data access is
//! checked against both PTE flags and the RMP — matching SNP, where VMPL
//! checks ride on the nested walk of the final translation.

use crate::fault::SnpError;
use crate::machine::Machine;
use crate::mem::{gpa_of, PAGE_SIZE};
use crate::perms::{Access, Cpl, Vmpl};
use std::fmt;

/// Flags stored in a page-table entry.
#[derive(Clone, Copy, PartialEq, Eq, Default)]
pub struct PteFlags(u64);

impl PteFlags {
    /// Entry is valid.
    pub const PRESENT: PteFlags = PteFlags(1 << 0);
    /// Writes allowed.
    pub const WRITABLE: PteFlags = PteFlags(1 << 1);
    /// User-mode (CPL-3) access allowed.
    pub const USER: PteFlags = PteFlags(1 << 2);
    /// Entry has been used for a translation.
    pub const ACCESSED: PteFlags = PteFlags(1 << 5);
    /// Page has been written through this entry.
    pub const DIRTY: PteFlags = PteFlags(1 << 6);
    /// No instruction fetch.
    pub const NX: PteFlags = PteFlags(1 << 63);

    /// Empty flag set.
    pub const fn empty() -> PteFlags {
        PteFlags(0)
    }

    /// Kernel read/write data mapping.
    pub const fn kernel_data() -> PteFlags {
        PteFlags(1 << 0 | 1 << 1 | 1 << 63)
    }

    /// Kernel text mapping (read + supervisor execute).
    pub const fn kernel_text() -> PteFlags {
        PteFlags(1 << 0)
    }

    /// User read/write data mapping (no execute).
    pub const fn user_data() -> PteFlags {
        PteFlags(1 << 0 | 1 << 1 | 1 << 2 | 1 << 63)
    }

    /// User text mapping (read + execute).
    pub const fn user_text() -> PteFlags {
        PteFlags(1 << 0 | 1 << 2)
    }

    /// User read-only data.
    pub const fn user_ro() -> PteFlags {
        PteFlags(1 << 0 | 1 << 2 | 1 << 63)
    }

    /// Whether all bits of `other` are present.
    pub const fn contains(self, other: PteFlags) -> bool {
        self.0 & other.0 == other.0
    }

    /// Union of two flag sets.
    #[must_use]
    pub const fn union(self, other: PteFlags) -> PteFlags {
        PteFlags(self.0 | other.0)
    }

    /// Removes the bits of `other`.
    #[must_use]
    pub const fn difference(self, other: PteFlags) -> PteFlags {
        PteFlags(self.0 & !other.0)
    }

    /// Raw bit representation.
    pub const fn bits(self) -> u64 {
        self.0
    }

    /// Reconstructs from raw bits (masking out the address field).
    pub const fn from_bits_truncate(bits: u64) -> PteFlags {
        PteFlags(bits & (0b110_0111 | 1 << 63))
    }
}

impl std::ops::BitOr for PteFlags {
    type Output = PteFlags;
    fn bitor(self, rhs: PteFlags) -> PteFlags {
        self.union(rhs)
    }
}

impl fmt::Debug for PteFlags {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut s = String::new();
        s.push(if self.contains(PteFlags::PRESENT) { 'p' } else { '-' });
        s.push(if self.contains(PteFlags::WRITABLE) { 'w' } else { '-' });
        s.push(if self.contains(PteFlags::USER) { 'u' } else { '-' });
        s.push(if self.contains(PteFlags::NX) { '^' } else { 'x' });
        write!(f, "PteFlags({s})")
    }
}

const ADDR_MASK: u64 = 0x000f_ffff_ffff_f000;
const LEVELS: usize = 4;

/// Errors from page-table operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PtError {
    /// Virtual address has no mapping.
    NotMapped {
        /// The faulting virtual address.
        vaddr: u64,
    },
    /// Mapping already exists at this address.
    AlreadyMapped {
        /// The conflicting virtual address.
        vaddr: u64,
    },
    /// The frame free-list ran out while allocating table pages.
    NoFrames,
    /// PTE flags forbid the access (a classic page fault, `#PF`).
    PageFault {
        /// The faulting virtual address.
        vaddr: u64,
        /// The access that faulted.
        access: Access,
    },
    /// The underlying RMP refused the access or table edit (`#NPF`).
    Snp(SnpError),
    /// Virtual address is non-canonical / out of modelled range.
    BadAddress {
        /// The offending virtual address.
        vaddr: u64,
    },
}

impl fmt::Display for PtError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PtError::NotMapped { vaddr } => write!(f, "no mapping for {vaddr:#x}"),
            PtError::AlreadyMapped { vaddr } => write!(f, "{vaddr:#x} already mapped"),
            PtError::NoFrames => write!(f, "page-table frame pool exhausted"),
            PtError::PageFault { vaddr, access } => {
                write!(f, "#PF at {vaddr:#x} ({access:?})")
            }
            PtError::Snp(e) => write!(f, "{e}"),
            PtError::BadAddress { vaddr } => write!(f, "bad virtual address {vaddr:#x}"),
        }
    }
}

impl std::error::Error for PtError {}

impl From<SnpError> for PtError {
    fn from(e: SnpError) -> Self {
        PtError::Snp(e)
    }
}

fn index_at(vaddr: u64, level: usize) -> u64 {
    (vaddr >> (12 + 9 * level)) & 0x1ff
}

/// A page-table hierarchy rooted at one guest frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AddressSpace {
    root_gfn: u64,
}

impl AddressSpace {
    /// Creates an address space whose root table occupies a frame popped
    /// from `free` (zeroed through a checked write at `vmpl`).
    ///
    /// # Errors
    ///
    /// [`PtError::NoFrames`] if `free` is empty, or an RMP error if the
    /// frame is not writable at `vmpl`.
    pub fn new(machine: &mut Machine, vmpl: Vmpl, free: &mut Vec<u64>) -> Result<Self, PtError> {
        let root_gfn = free.pop().ok_or(PtError::NoFrames)?;
        machine.write(vmpl, gpa_of(root_gfn), &[0u8; PAGE_SIZE])?;
        Ok(AddressSpace { root_gfn })
    }

    /// Adopts an existing root frame (e.g. a cloned hierarchy).
    pub fn from_root(root_gfn: u64) -> Self {
        AddressSpace { root_gfn }
    }

    /// The root table's frame (the value loaded into CR3).
    pub fn root_gfn(&self) -> u64 {
        self.root_gfn
    }

    fn check_vaddr(vaddr: u64) -> Result<(), PtError> {
        if vaddr >> 48 != 0 {
            return Err(PtError::BadAddress { vaddr });
        }
        Ok(())
    }

    /// Maps virtual page `vaddr` (page-aligned) to frame `pfn` with
    /// `flags`, editing tables via checked writes at `vmpl` and drawing
    /// intermediate table frames from `free`.
    ///
    /// # Errors
    ///
    /// * [`PtError::AlreadyMapped`] if a present mapping exists;
    /// * [`PtError::NoFrames`] if the pool runs dry;
    /// * [`PtError::Snp`] if a table frame is not writable at `vmpl` —
    ///   this is how cloned (protected) tables resist OS edits.
    pub fn map(
        &self,
        machine: &mut Machine,
        vmpl: Vmpl,
        free: &mut Vec<u64>,
        vaddr: u64,
        pfn: u64,
        flags: PteFlags,
    ) -> Result<(), PtError> {
        Self::check_vaddr(vaddr)?;
        assert_eq!(vaddr % PAGE_SIZE as u64, 0, "vaddr must be page-aligned");
        let mut table_gfn = self.root_gfn;
        for level in (1..LEVELS).rev() {
            let slot = gpa_of(table_gfn) + index_at(vaddr, level) * 8;
            let entry = machine.read_u64(vmpl, slot)?;
            if entry & PteFlags::PRESENT.bits() == 0 {
                let new_gfn = free.pop().ok_or(PtError::NoFrames)?;
                machine.write(vmpl, gpa_of(new_gfn), &[0u8; PAGE_SIZE])?;
                // Interior entries carry permissive flags; leaves decide.
                let interior = (PteFlags::PRESENT | PteFlags::WRITABLE | PteFlags::USER).bits();
                machine.write_u64(vmpl, slot, gpa_of(new_gfn) & ADDR_MASK | interior)?;
                table_gfn = new_gfn;
            } else {
                table_gfn = (entry & ADDR_MASK) / PAGE_SIZE as u64;
            }
        }
        let leaf_slot = gpa_of(table_gfn) + index_at(vaddr, 0) * 8;
        let existing = machine.read_u64(vmpl, leaf_slot)?;
        if existing & PteFlags::PRESENT.bits() != 0 {
            return Err(PtError::AlreadyMapped { vaddr });
        }
        machine.write_u64(
            vmpl,
            leaf_slot,
            (gpa_of(pfn) & ADDR_MASK) | flags.union(PteFlags::PRESENT).bits(),
        )?;
        Ok(())
    }

    /// Removes the mapping for `vaddr`, returning the frame it pointed at.
    /// Intermediate tables are left in place (matching real kernels).
    pub fn unmap(&self, machine: &mut Machine, vmpl: Vmpl, vaddr: u64) -> Result<u64, PtError> {
        let (slot, entry) = self.leaf_slot(machine, vaddr)?;
        machine.write_u64(vmpl, slot, 0)?;
        Ok((entry & ADDR_MASK) / PAGE_SIZE as u64)
    }

    /// Rewrites the flags of an existing mapping (keeps the frame).
    pub fn protect(
        &self,
        machine: &mut Machine,
        vmpl: Vmpl,
        vaddr: u64,
        flags: PteFlags,
    ) -> Result<(), PtError> {
        let (slot, entry) = self.leaf_slot(machine, vaddr)?;
        machine.write_u64(
            vmpl,
            slot,
            (entry & ADDR_MASK) | flags.union(PteFlags::PRESENT).bits(),
        )?;
        Ok(())
    }

    fn leaf_slot(&self, machine: &Machine, vaddr: u64) -> Result<(u64, u64), PtError> {
        Self::check_vaddr(vaddr)?;
        let mut table_gfn = self.root_gfn;
        for level in (1..LEVELS).rev() {
            // A (possibly corrupted) interior entry can point anywhere;
            // a table pointer outside guest memory is a nested fault on
            // the walk itself, not a crash.
            if table_gfn >= machine.frames() {
                return Err(PtError::NotMapped { vaddr });
            }
            let slot = gpa_of(table_gfn) + index_at(vaddr, level) * 8;
            let entry = machine.mem().read_u64_raw(slot);
            if entry & PteFlags::PRESENT.bits() == 0 {
                return Err(PtError::NotMapped { vaddr });
            }
            table_gfn = (entry & ADDR_MASK) / PAGE_SIZE as u64;
        }
        if table_gfn >= machine.frames() {
            return Err(PtError::NotMapped { vaddr });
        }
        let slot = gpa_of(table_gfn) + index_at(vaddr, 0) * 8;
        let entry = machine.mem().read_u64_raw(slot);
        if entry & PteFlags::PRESENT.bits() == 0 {
            return Err(PtError::NotMapped { vaddr });
        }
        Ok((slot, entry))
    }

    /// Hardware page walk: translates `vaddr` to (frame, flags) without
    /// privilege checks (the MMU reads tables regardless of VMPL masks).
    /// Every call walks the live tables, so a PTE edit is visible to the
    /// next access with no invalidation step.
    pub fn translate(&self, machine: &Machine, vaddr: u64) -> Result<(u64, PteFlags), PtError> {
        let (_, entry) = self.leaf_slot(machine, vaddr)?;
        Ok(((entry & ADDR_MASK) / PAGE_SIZE as u64, PteFlags::from_bits_truncate(entry)))
    }

    /// Full hardware access check for one byte-range within a page:
    /// PTE flags (`#PF`) then RMP/VMPL (`#NPF`). Returns the
    /// guest-physical address on success.
    pub fn access(
        &self,
        machine: &Machine,
        vaddr: u64,
        vmpl: Vmpl,
        cpl: Cpl,
        access: Access,
    ) -> Result<u64, PtError> {
        let (pfn, flags) = self.translate(machine, vaddr & !0xfff)?;
        let fault = || PtError::PageFault { vaddr, access };
        if cpl == Cpl::Cpl3 && !flags.contains(PteFlags::USER) {
            return Err(fault());
        }
        match access {
            Access::Write => {
                if !flags.contains(PteFlags::WRITABLE) {
                    return Err(fault());
                }
            }
            Access::Execute(_) => {
                if flags.contains(PteFlags::NX) {
                    return Err(fault());
                }
            }
            Access::Read => {}
        }
        machine.rmp().check(pfn, vmpl, access).map_err(|e| PtError::Snp(e.into()))?;
        Ok(gpa_of(pfn) + (vaddr & 0xfff))
    }

    /// Checked virtual-memory read crossing page boundaries.
    pub fn read_virt(
        &self,
        machine: &Machine,
        vaddr: u64,
        len: usize,
        vmpl: Vmpl,
        cpl: Cpl,
    ) -> Result<Vec<u8>, PtError> {
        let mut out = vec![0u8; len];
        self.read_virt_into(machine, vaddr, &mut out, vmpl, cpl)?;
        Ok(out)
    }

    /// Checked virtual-memory read into a caller-owned buffer — the
    /// allocation-free hot path the kernel and SDK copy loops use.
    pub fn read_virt_into(
        &self,
        machine: &Machine,
        vaddr: u64,
        out: &mut [u8],
        vmpl: Vmpl,
        cpl: Cpl,
    ) -> Result<(), PtError> {
        let len = out.len();
        let mut done = 0usize;
        while done < len {
            let va = vaddr + done as u64;
            let in_page = (PAGE_SIZE - (va as usize & 0xfff)).min(len - done);
            let gpa = self.access(machine, va, vmpl, cpl, Access::Read)?;
            machine.mem().read_raw(gpa, &mut out[done..done + in_page]);
            done += in_page;
        }
        Ok(())
    }

    /// Checked virtual-memory write crossing page boundaries.
    pub fn write_virt(
        &self,
        machine: &mut Machine,
        vaddr: u64,
        data: &[u8],
        vmpl: Vmpl,
        cpl: Cpl,
    ) -> Result<(), PtError> {
        let mut done = 0usize;
        while done < data.len() {
            let va = vaddr + done as u64;
            let in_page = (PAGE_SIZE - (va as usize & 0xfff)).min(data.len() - done);
            let gpa = self.access(machine, va, vmpl, cpl, Access::Write)?;
            machine.mem_mut().write_raw(gpa, &data[done..done + in_page]);
            done += in_page;
        }
        Ok(())
    }

    /// Visits every present leaf mapping as `(vaddr, pfn, flags)`, in
    /// ascending virtual order. Used for enclave measurement and cloning.
    pub fn walk(&self, machine: &Machine, f: &mut dyn FnMut(u64, u64, PteFlags)) {
        self.walk_level(machine, self.root_gfn, LEVELS - 1, 0, f);
    }

    fn walk_level(
        &self,
        machine: &Machine,
        table_gfn: u64,
        level: usize,
        base: u64,
        f: &mut dyn FnMut(u64, u64, PteFlags),
    ) {
        for i in 0..512u64 {
            let entry = machine.mem().read_u64_raw(gpa_of(table_gfn) + i * 8);
            if entry & PteFlags::PRESENT.bits() == 0 {
                continue;
            }
            let vaddr = base + (i << (12 + 9 * level));
            let next = (entry & ADDR_MASK) / PAGE_SIZE as u64;
            if level == 0 {
                f(vaddr, next, PteFlags::from_bits_truncate(entry));
            } else {
                self.walk_level(machine, next, level - 1, vaddr, f);
            }
        }
    }

    /// Every frame used by the table hierarchy itself (root + interior),
    /// needed when cloning into protected memory.
    pub fn table_frames(&self, machine: &Machine) -> Vec<u64> {
        let mut frames = vec![self.root_gfn];
        self.collect_tables(machine, self.root_gfn, LEVELS - 1, &mut frames);
        frames
    }

    fn collect_tables(&self, machine: &Machine, table_gfn: u64, level: usize, out: &mut Vec<u64>) {
        if level == 0 {
            return;
        }
        for i in 0..512u64 {
            let entry = machine.mem().read_u64_raw(gpa_of(table_gfn) + i * 8);
            if entry & PteFlags::PRESENT.bits() == 0 {
                continue;
            }
            let next = (entry & ADDR_MASK) / PAGE_SIZE as u64;
            out.push(next);
            self.collect_tables(machine, next, level - 1, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::MachineConfig;
    use crate::perms::VmplPerms;

    fn setup(frames: usize) -> (Machine, Vec<u64>) {
        let mut m = Machine::new(MachineConfig { frames, ..MachineConfig::default() });
        let mut free = Vec::new();
        for gfn in 1..frames as u64 {
            m.rmp_assign(gfn).unwrap();
            m.pvalidate(Vmpl::Vmpl0, gfn, true).unwrap();
            for vmpl in [Vmpl::Vmpl1, Vmpl::Vmpl2, Vmpl::Vmpl3] {
                m.rmpadjust(Vmpl::Vmpl0, gfn, vmpl, VmplPerms::all()).unwrap();
            }
            free.push(gfn);
        }
        free.reverse(); // pop from the low end for readability
        (m, free)
    }

    #[test]
    fn map_translate_roundtrip() {
        let (mut m, mut free) = setup(64);
        let aspace = AddressSpace::new(&mut m, Vmpl::Vmpl3, &mut free).unwrap();
        let data_pfn = free.pop().unwrap();
        aspace
            .map(&mut m, Vmpl::Vmpl3, &mut free, 0x4000_0000, data_pfn, PteFlags::user_data())
            .unwrap();
        let (pfn, flags) = aspace.translate(&m, 0x4000_0000).unwrap();
        assert_eq!(pfn, data_pfn);
        assert!(flags.contains(PteFlags::USER));
        assert!(flags.contains(PteFlags::NX));
    }

    #[test]
    fn double_map_rejected() {
        let (mut m, mut free) = setup(64);
        let aspace = AddressSpace::new(&mut m, Vmpl::Vmpl3, &mut free).unwrap();
        let p1 = free.pop().unwrap();
        let p2 = free.pop().unwrap();
        aspace.map(&mut m, Vmpl::Vmpl3, &mut free, 0x1000, p1, PteFlags::user_data()).unwrap();
        assert_eq!(
            aspace.map(&mut m, Vmpl::Vmpl3, &mut free, 0x1000, p2, PteFlags::user_data()),
            Err(PtError::AlreadyMapped { vaddr: 0x1000 })
        );
    }

    #[test]
    fn virt_rw_across_pages() {
        let (mut m, mut free) = setup(64);
        let aspace = AddressSpace::new(&mut m, Vmpl::Vmpl3, &mut free).unwrap();
        for i in 0..2 {
            let pfn = free.pop().unwrap();
            aspace
                .map(&mut m, Vmpl::Vmpl3, &mut free, 0x10000 + i * 4096, pfn, PteFlags::user_data())
                .unwrap();
        }
        let payload: Vec<u8> = (0..5000u32).map(|i| (i % 251) as u8).collect();
        aspace.write_virt(&mut m, 0x10000, &payload, Vmpl::Vmpl3, Cpl::Cpl3).unwrap();
        let got = aspace.read_virt(&m, 0x10000, 5000, Vmpl::Vmpl3, Cpl::Cpl3).unwrap();
        assert_eq!(got, payload);
    }

    #[test]
    fn pte_flags_enforced() {
        let (mut m, mut free) = setup(64);
        let aspace = AddressSpace::new(&mut m, Vmpl::Vmpl3, &mut free).unwrap();
        let ro = free.pop().unwrap();
        let ktext = free.pop().unwrap();
        aspace.map(&mut m, Vmpl::Vmpl3, &mut free, 0x1000, ro, PteFlags::user_ro()).unwrap();
        aspace.map(&mut m, Vmpl::Vmpl3, &mut free, 0x2000, ktext, PteFlags::kernel_text()).unwrap();
        // Read-only page rejects writes.
        assert!(matches!(
            aspace.access(&m, 0x1000, Vmpl::Vmpl3, Cpl::Cpl3, Access::Write),
            Err(PtError::PageFault { .. })
        ));
        // NX page rejects execute.
        assert!(matches!(
            aspace.access(&m, 0x1000, Vmpl::Vmpl3, Cpl::Cpl3, Access::Execute(Cpl::Cpl3)),
            Err(PtError::PageFault { .. })
        ));
        // Supervisor page rejects user access.
        assert!(matches!(
            aspace.access(&m, 0x2000, Vmpl::Vmpl3, Cpl::Cpl3, Access::Read),
            Err(PtError::PageFault { .. })
        ));
        // ...but supervisor reads fine.
        assert!(aspace.access(&m, 0x2000, Vmpl::Vmpl3, Cpl::Cpl0, Access::Read).is_ok());
    }

    #[test]
    fn rmp_checked_after_pte() {
        let (mut m, mut free) = setup(64);
        let aspace = AddressSpace::new(&mut m, Vmpl::Vmpl3, &mut free).unwrap();
        let pfn = free.pop().unwrap();
        aspace.map(&mut m, Vmpl::Vmpl3, &mut free, 0x1000, pfn, PteFlags::user_data()).unwrap();
        // PTE says writable, but VMPL-0 revokes the page from VMPL-3.
        m.rmpadjust(Vmpl::Vmpl0, pfn, Vmpl::Vmpl3, VmplPerms::empty()).unwrap();
        assert!(matches!(
            aspace.access(&m, 0x1000, Vmpl::Vmpl3, Cpl::Cpl3, Access::Write),
            Err(PtError::Snp(_))
        ));
    }

    #[test]
    fn protected_tables_resist_edits() {
        let (mut m, mut free) = setup(64);
        let aspace = AddressSpace::new(&mut m, Vmpl::Vmpl3, &mut free).unwrap();
        let pfn = free.pop().unwrap();
        aspace.map(&mut m, Vmpl::Vmpl3, &mut free, 0x5000, pfn, PteFlags::user_data()).unwrap();
        // Protect every table frame at VMPL-1 (what VeilS-ENC does).
        for gfn in aspace.table_frames(&m) {
            m.rmpadjust(Vmpl::Vmpl0, gfn, Vmpl::Vmpl3, VmplPerms::empty()).unwrap();
            m.rmpadjust(Vmpl::Vmpl0, gfn, Vmpl::Vmpl2, VmplPerms::empty()).unwrap();
        }
        // OS edits now fault; the hardware still translates.
        assert!(matches!(aspace.unmap(&mut m, Vmpl::Vmpl3, 0x5000), Err(PtError::Snp(_))));
        assert!(aspace.translate(&m, 0x5000).is_ok());
    }

    #[test]
    fn walk_lists_all_mappings() {
        let (mut m, mut free) = setup(128);
        let aspace = AddressSpace::new(&mut m, Vmpl::Vmpl3, &mut free).unwrap();
        let mut expect = Vec::new();
        for i in 0..5u64 {
            let pfn = free.pop().unwrap();
            let vaddr = 0x7000_0000 + i * 0x20_0000; // spread across L2 entries
            aspace.map(&mut m, Vmpl::Vmpl3, &mut free, vaddr, pfn, PteFlags::user_data()).unwrap();
            expect.push((vaddr, pfn));
        }
        let mut got = Vec::new();
        aspace.walk(&m, &mut |v, p, _| got.push((v, p)));
        assert_eq!(got, expect);
    }

    #[test]
    fn unmap_then_translate_fails() {
        let (mut m, mut free) = setup(64);
        let aspace = AddressSpace::new(&mut m, Vmpl::Vmpl3, &mut free).unwrap();
        let pfn = free.pop().unwrap();
        aspace.map(&mut m, Vmpl::Vmpl3, &mut free, 0x9000, pfn, PteFlags::user_data()).unwrap();
        assert_eq!(aspace.unmap(&mut m, Vmpl::Vmpl3, 0x9000).unwrap(), pfn);
        assert!(matches!(aspace.translate(&m, 0x9000), Err(PtError::NotMapped { .. })));
    }

    #[test]
    fn bad_vaddr_rejected() {
        let (mut m, mut free) = setup(64);
        let aspace = AddressSpace::new(&mut m, Vmpl::Vmpl3, &mut free).unwrap();
        assert!(matches!(aspace.translate(&m, 1u64 << 50), Err(PtError::BadAddress { .. })));
        let pfn = free.pop().unwrap();
        assert!(matches!(
            aspace.map(&mut m, Vmpl::Vmpl3, &mut free, 1u64 << 55, pfn, PteFlags::user_data()),
            Err(PtError::BadAddress { .. })
        ));
    }
}
