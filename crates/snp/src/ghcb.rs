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
use crate::mem::gpa_of;
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
    /// Binds to the GHCB at frame `gfn`, or `None` when the frame is
    /// outside memory or private: the hypervisor could not read either, so
    /// neither is a usable GHCB (§6.2).
    pub fn at(machine: &Machine, gfn: u64) -> Option<Ghcb> {
        machine.rmp().hypervisor_accessible(gfn).then_some(Ghcb { gfn })
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
            GhcbExit::Shutdown,
        ] {
            assert_eq!(GhcbExit::from_code(exit.code()), Some(exit));
        }
        assert_eq!(GhcbExit::from_code(0xdead), None);
        // The retired batched page-state-change code decodes to nothing.
        assert_eq!(GhcbExit::from_code(0x8000_f004), None);
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
        assert!(Ghcb::at(&m, 3).is_none(), "private page cannot be a GHCB");
        assert!(Ghcb::at(&m, 9999).is_none(), "out of range");
    }
}
