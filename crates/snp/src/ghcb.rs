//! Guest-hypervisor communication block (GHCB).
//!
//! Non-automatic exits (§3, Fig. 1) carry request state to the hypervisor
//! through a *shared* page: the guest writes an exit code plus parameters,
//! executes `VMGEXIT`, and the hypervisor reads the GHCB. The model stores
//! the GHCB contents in the actual shared guest frame so that the "is this
//! page really shared/mapped?" failure modes of §6.2 (incorrect GHCB
//! mapping crashes the CVM) are faithfully reproduced.

use crate::fault::SnpError;
use crate::machine::Machine;
use crate::mem::{gpa_of, PAGE_SIZE};
use crate::perms::Vmpl;

/// Byte offsets of the GHCB fields within the shared page.
mod offsets {
    pub const EXIT_CODE: u64 = 0x390;
    pub const EXIT_INFO1: u64 = 0x398;
    pub const EXIT_INFO2: u64 = 0x3a0;
    pub const SCRATCH: u64 = 0x3a8;
}

/// Exit codes for `VMGEXIT` requests understood by the hypervisor model.
///
/// Values below `0x8000_0000` mirror standard GHCB protocol events; values
/// above are the Veil-specific hypercalls the paper adds to KVM (§7).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GhcbExit {
    /// Port/MMIO-style I/O request (devices, disk, network).
    Io,
    /// MSR access emulation.
    Msr,
    /// Page-state change request (private <-> shared).
    PageStateChange,
    /// Veil: switch this VCPU to the domain in `exit_info1` (target VMPL).
    DomainSwitch,
    /// Veil: create/boot a new VCPU whose VMSA gpa is in `exit_info1`.
    CreateVcpu,
    /// Veil: doorbell — switch to the domain in `exit_info1` to drain a
    /// gate request ring of depth `exit_info2` (batched gate path).
    Doorbell,
    /// Batched page-state change: `exit_info1` holds the gfn of a shared
    /// list page of packed entries, `exit_info2` the entry count.
    PscBatch,
    /// Plain guest shutdown request.
    Shutdown,
}

impl GhcbExit {
    /// Protocol encoding of the exit code.
    pub fn code(self) -> u64 {
        match self {
            GhcbExit::Io => 0x7b,
            GhcbExit::Msr => 0x7c,
            GhcbExit::PageStateChange => 0x80000010,
            GhcbExit::DomainSwitch => 0x8000_f001,
            GhcbExit::CreateVcpu => 0x8000_f002,
            GhcbExit::Doorbell => 0x8000_f003,
            GhcbExit::PscBatch => 0x8000_f004,
            GhcbExit::Shutdown => 0x8000_f0ff,
        }
    }

    /// Decodes a protocol exit code.
    pub fn from_code(code: u64) -> Option<GhcbExit> {
        Some(match code {
            0x7b => GhcbExit::Io,
            0x7c => GhcbExit::Msr,
            0x80000010 => GhcbExit::PageStateChange,
            0x8000_f001 => GhcbExit::DomainSwitch,
            0x8000_f002 => GhcbExit::CreateVcpu,
            0x8000_f003 => GhcbExit::Doorbell,
            0x8000_f004 => GhcbExit::PscBatch,
            0x8000_f0ff => GhcbExit::Shutdown,
            _ => return None,
        })
    }
}

/// Typed accessor over a GHCB page in guest memory.
///
/// Construction verifies that the frame really is hypervisor-shared; a GHCB
/// placed in private memory is unusable (the hypervisor could not read it)
/// and the paper leans on this to crash rather than leak (§6.2).
#[derive(Debug, Clone, Copy)]
pub struct Ghcb {
    gfn: u64,
}

impl Ghcb {
    /// Binds to the GHCB at frame `gfn`, checking it is shared.
    ///
    /// # Errors
    ///
    /// Returns [`SnpError::Npf`]-free `OutOfRange`/`NotAVmsa`-style errors
    /// via [`SnpError`] when the frame is outside memory or not shared.
    pub fn at(machine: &Machine, gfn: u64) -> Result<Ghcb, SnpError> {
        if gfn >= machine.rmp().frames() {
            return Err(SnpError::OutOfRange { gfn });
        }
        if !machine.rmp().hypervisor_accessible(gfn) {
            // Not a distinct architectural fault: the hypervisor simply
            // cannot see the page, so the protocol wedges. We surface it
            // as a halt-worthy error.
            return Err(SnpError::NotAVmsa { gfn });
        }
        Ok(Ghcb { gfn })
    }

    /// The frame this GHCB occupies.
    pub fn gfn(&self) -> u64 {
        self.gfn
    }

    /// Base guest-physical address.
    pub fn base(&self) -> u64 {
        gpa_of(self.gfn)
    }

    /// Writes the exit request fields. Any VMPL can write its own GHCB —
    /// the page is shared — so this uses checked guest writes.
    pub fn write_request(
        &self,
        machine: &mut Machine,
        vmpl: Vmpl,
        exit: GhcbExit,
        info1: u64,
        info2: u64,
    ) -> Result<(), SnpError> {
        // One checked write for all three contiguous fields: a request is
        // issued on every domain switch, so the permission check is paid
        // once instead of three times.
        let mut fields = [0u8; 24];
        fields[..8].copy_from_slice(&exit.code().to_le_bytes());
        fields[8..16].copy_from_slice(&info1.to_le_bytes());
        fields[16..].copy_from_slice(&info2.to_le_bytes());
        machine.write(vmpl, self.base() + offsets::EXIT_CODE, &fields)
    }

    /// Hypervisor-side read of the request (raw access — the page is shared).
    pub fn read_request(&self, machine: &Machine) -> Option<(GhcbExit, u64, u64)> {
        let code = machine.mem().read_u64_raw(self.base() + offsets::EXIT_CODE);
        let info1 = machine.mem().read_u64_raw(self.base() + offsets::EXIT_INFO1);
        let info2 = machine.mem().read_u64_raw(self.base() + offsets::EXIT_INFO2);
        GhcbExit::from_code(code).map(|e| (e, info1, info2))
    }

    /// Writes the hypervisor's response into the scratch area (raw access).
    pub fn write_response(&self, machine: &mut Machine, value: u64) {
        machine.mem_mut().write_u64_raw(self.base() + offsets::SCRATCH, value);
    }

    /// Guest-side read of the hypervisor response.
    pub fn read_response(&self, machine: &Machine, vmpl: Vmpl) -> Result<u64, SnpError> {
        machine.read_u64(vmpl, self.base() + offsets::SCRATCH)
    }

    /// Copies a byte payload into the GHCB shared buffer region (first
    /// 0x390 bytes), used for bounce-buffered I/O.
    pub fn write_payload(
        &self,
        machine: &mut Machine,
        vmpl: Vmpl,
        data: &[u8],
    ) -> Result<(), SnpError> {
        assert!(data.len() <= offsets::EXIT_CODE as usize, "payload too large for GHCB");
        machine.write(vmpl, self.base(), data)
    }

    /// Reads a byte payload from the shared buffer region.
    pub fn read_payload(
        &self,
        machine: &Machine,
        vmpl: Vmpl,
        len: usize,
    ) -> Result<Vec<u8>, SnpError> {
        assert!(len <= offsets::EXIT_CODE as usize, "payload too large for GHCB");
        machine.read(vmpl, self.base(), len)
    }

    /// Size of the usable payload area.
    pub const fn payload_capacity() -> usize {
        offsets::EXIT_CODE as usize
    }

    /// Total GHCB size (one page).
    pub const fn size() -> usize {
        PAGE_SIZE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::MachineConfig;

    fn machine() -> Machine {
        Machine::new(MachineConfig { frames: 16, ..MachineConfig::default() })
    }

    #[test]
    fn exit_code_roundtrip() {
        for exit in [
            GhcbExit::Io,
            GhcbExit::Msr,
            GhcbExit::PageStateChange,
            GhcbExit::DomainSwitch,
            GhcbExit::CreateVcpu,
            GhcbExit::Doorbell,
            GhcbExit::PscBatch,
            GhcbExit::Shutdown,
        ] {
            assert_eq!(GhcbExit::from_code(exit.code()), Some(exit));
        }
        assert_eq!(GhcbExit::from_code(0xdead), None);
    }

    #[test]
    fn request_response_roundtrip() {
        let mut m = machine();
        let ghcb = Ghcb::at(&m, 3).unwrap();
        ghcb.write_request(&mut m, Vmpl::Vmpl3, GhcbExit::DomainSwitch, 0, 7).unwrap();
        assert_eq!(ghcb.read_request(&m), Some((GhcbExit::DomainSwitch, 0, 7)));
        ghcb.write_response(&mut m, 0x55);
        assert_eq!(ghcb.read_response(&m, Vmpl::Vmpl3).unwrap(), 0x55);
    }

    #[test]
    fn ghcb_must_be_shared() {
        let mut m = machine();
        m.rmp_assign(3).unwrap();
        m.pvalidate(Vmpl::Vmpl0, 3, true).unwrap();
        assert!(Ghcb::at(&m, 3).is_err(), "private page cannot be a GHCB");
        assert!(Ghcb::at(&m, 9999).is_err(), "out of range");
    }

    #[test]
    fn payload_roundtrip() {
        let mut m = machine();
        let ghcb = Ghcb::at(&m, 2).unwrap();
        ghcb.write_payload(&mut m, Vmpl::Vmpl2, b"syscall args").unwrap();
        assert_eq!(ghcb.read_payload(&m, Vmpl::Vmpl3, 12).unwrap(), b"syscall args");
    }
}
