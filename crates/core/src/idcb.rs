//! Inter-domain communication blocks (IDCB, §5.2).
//!
//! Shared-memory mailboxes for bi-directional domain communication. For
//! any two domains, the IDCB lives in the *less privileged* domain's
//! memory so both parties can access it; OS↔VeilMon IDCBs sit in a
//! reserved slice of kernel memory, one per VCPU to avoid contention.

use veil_os::error::{OsError, Refusal};
use veil_snp::machine::Machine;
use veil_snp::mem::{gpa_of, PAGE_SIZE};
use veil_snp::perms::Vmpl;

/// Header: `magic(4) seq(4) len(8)` then payload.
const HEADER_LEN: usize = 16;
const MAGIC: u32 = 0x5645_494c; // "VEIL"

/// One IDCB bound to a guest frame.
#[derive(Debug, Clone, Copy)]
pub struct Idcb {
    gfn: u64,
}

impl Idcb {
    /// Binds to the IDCB frame.
    pub fn at(gfn: u64) -> Idcb {
        Idcb { gfn }
    }

    /// The frame.
    pub fn gfn(&self) -> u64 {
        self.gfn
    }

    /// Maximum payload per message.
    pub const fn capacity() -> usize {
        PAGE_SIZE - HEADER_LEN
    }

    /// Writes a message at `vmpl` (the sender's privilege — enforced by
    /// the RMP, so a domain that lost access cannot spoof messages).
    ///
    /// # Errors
    ///
    /// RMP faults surface as [`OsError::Snp`]; oversized payloads are
    /// rejected.
    pub fn write_message(
        &self,
        machine: &mut Machine,
        vmpl: Vmpl,
        seq: u32,
        payload: &[u8],
    ) -> Result<(), OsError> {
        if payload.len() > Self::capacity() {
            return Err(Refusal::MessageTooLong.into());
        }
        let base = gpa_of(self.gfn);
        let mut header = [0u8; HEADER_LEN];
        header[0..4].copy_from_slice(&MAGIC.to_le_bytes());
        header[4..8].copy_from_slice(&seq.to_le_bytes());
        header[8..16].copy_from_slice(&(payload.len() as u64).to_le_bytes());
        machine.write(vmpl, base, &header)?;
        machine.write(vmpl, base + HEADER_LEN as u64, payload)?;
        Ok(())
    }

    /// Reads the current message at `vmpl`.
    ///
    /// # Errors
    ///
    /// Fails on RMP faults or a corrupt header.
    pub fn read_message(&self, machine: &Machine, vmpl: Vmpl) -> Result<(u32, Vec<u8>), OsError> {
        let base = gpa_of(self.gfn);
        // `magic(4) seq(4)` and `len(8)`, read as two 8-byte words.
        let mut header = [[0u8; 8]; HEADER_LEN / 8];
        machine.read_into(vmpl, base, header.as_flattened_mut())?;
        let [[m0, m1, m2, m3, s0, s1, s2, s3], len] = header;
        let magic = u32::from_le_bytes([m0, m1, m2, m3]);
        let seq = u32::from_le_bytes([s0, s1, s2, s3]);
        let len = u64::from_le_bytes(len);
        if magic != MAGIC || len > Self::capacity() as u64 {
            return Err(Refusal::IdcbCorrupt.into());
        }
        let payload = machine.read(vmpl, base + HEADER_LEN as u64, len as usize)?;
        Ok((seq, payload))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use veil_snp::machine::MachineConfig;
    use veil_snp::perms::VmplPerms;

    fn machine_with_idcb() -> (Machine, Idcb) {
        let mut m = Machine::new(MachineConfig { frames: 8, ..MachineConfig::default() });
        m.rmp_assign(3).unwrap();
        m.pvalidate(Vmpl::Vmpl0, 3, true).unwrap();
        // Kernel memory readable+writable by VMPL-1 and VMPL-3 (the two
        // ends of the OS<->monitor IDCB).
        m.rmpadjust(Vmpl::Vmpl0, 3, Vmpl::Vmpl1, VmplPerms::rw()).unwrap();
        m.rmpadjust(Vmpl::Vmpl0, 3, Vmpl::Vmpl3, VmplPerms::rw()).unwrap();
        (m, Idcb::at(3))
    }

    #[test]
    fn roundtrip_between_domains() {
        let (mut m, idcb) = machine_with_idcb();
        idcb.write_message(&mut m, Vmpl::Vmpl3, 1, b"pvalidate 0x50 please").unwrap();
        let (seq, payload) = idcb.read_message(&m, Vmpl::Vmpl0).unwrap();
        assert_eq!(seq, 1);
        assert_eq!(payload, b"pvalidate 0x50 please");
        // Monitor replies through the same block.
        idcb.write_message(&mut m, Vmpl::Vmpl0, 2, b"ok").unwrap();
        let (seq, payload) = idcb.read_message(&m, Vmpl::Vmpl3).unwrap();
        assert_eq!((seq, payload.as_slice()), (2, b"ok".as_slice()));
    }

    #[test]
    fn oversized_message_rejected() {
        let (mut m, idcb) = machine_with_idcb();
        let big = vec![0u8; Idcb::capacity() + 1];
        assert_eq!(
            idcb.write_message(&mut m, Vmpl::Vmpl3, 0, &big),
            Err(Refusal::MessageTooLong.into())
        );
    }

    #[test]
    fn corrupt_header_detected() {
        let (mut m, idcb) = machine_with_idcb();
        m.write(Vmpl::Vmpl0, gpa_of(3), &[0xff; 16]).unwrap();
        assert_eq!(idcb.read_message(&m, Vmpl::Vmpl0), Err(Refusal::IdcbCorrupt.into()));
    }

    #[test]
    fn enclave_cannot_read_os_monitor_idcb() {
        let (mut m, idcb) = machine_with_idcb();
        idcb.write_message(&mut m, Vmpl::Vmpl3, 1, b"secret-ish").unwrap();
        // VMPL-2 was never granted access to this kernel page.
        assert!(idcb.read_message(&m, Vmpl::Vmpl2).is_err());
    }
}
