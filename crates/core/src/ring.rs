//! Gate request rings for the batched gate path (§5.2).
//!
//! A domain switch costs thousands of cycles even when relayed well
//! (`cost().domain_switch()`), so paying it once *per request* dominates
//! gate-heavy workloads. The ring amortizes it: the kernel transcribes
//! queued requests into per-VCPU ring slots in its own memory (same
//! placement rule as the IDCB — the less privileged domain's memory),
//! rings one doorbell, and the monitor side drains every slot under that
//! single switch.
//!
//! One ring is one frame:
//!
//! ```text
//! +---------------- page header (16 bytes) -----------------+
//! | magic "VRNG" (4) | count (4) | reserved (8)             |
//! +------------------- slot 0 (272 bytes) ------------------+
//! | kind (1) | pad (7) | len (8) | payload (256)            |
//! +----------------------- ... ------------------------------+
//! | slot 14                                                  |
//! +----------------------------------------------------------+
//! ```
//!
//! `count` is the number of occupied slots; the drain side treats the
//! whole page as untrusted input and re-validates magic, count, and every
//! slot length before parsing (§8.1 — the kernel, or a hostile
//! hypervisor-colluding kernel, can scribble anything here).

use veil_os::error::{OsError, Refusal};
use veil_snp::machine::Machine;
use veil_snp::mem::{gpa_of, PAGE_SIZE};
use veil_snp::perms::Vmpl;

/// Page header: `magic(4) count(4) reserved(8)`.
const HEADER_LEN: usize = 16;
/// Per-slot header: `kind(1) pad(7) len(8)`.
const SLOT_HEADER_LEN: usize = 16;
const MAGIC: u32 = 0x5652_4e47; // "VRNG"

/// Payload bytes per slot.
pub const SLOT_PAYLOAD: usize = 256;
/// Bytes per slot including its header.
pub const SLOT_SIZE: usize = SLOT_HEADER_LEN + SLOT_PAYLOAD;
/// Slots per ring; header + slots exactly fill one frame.
pub const RING_SLOTS: u32 = ((PAGE_SIZE - HEADER_LEN) / SLOT_SIZE) as u32;

/// One gate ring bound to a guest frame.
#[derive(Debug, Clone, Copy)]
pub struct GateRing {
    gfn: u64,
}

impl GateRing {
    /// Binds to the ring frame.
    pub fn at(gfn: u64) -> GateRing {
        GateRing { gfn }
    }

    /// The frame.
    pub fn gfn(&self) -> u64 {
        self.gfn
    }

    fn slot_gpa(&self, idx: u32) -> u64 {
        gpa_of(self.gfn) + (HEADER_LEN + idx as usize * SLOT_SIZE) as u64
    }

    /// (Re)initializes the ring header: valid magic, zero entries.
    ///
    /// # Errors
    ///
    /// RMP faults surface as [`OsError::Snp`].
    pub fn reset(&self, machine: &mut Machine, vmpl: Vmpl) -> Result<(), OsError> {
        let mut header = [0u8; HEADER_LEN];
        header[0..4].copy_from_slice(&MAGIC.to_le_bytes());
        machine.write(vmpl, gpa_of(self.gfn), &header)?;
        Ok(())
    }

    /// Reads and validates the occupancy count.
    ///
    /// # Errors
    ///
    /// Fails on RMP faults, a corrupt magic, or a count exceeding
    /// [`RING_SLOTS`] — the drain side must treat all three as hostile.
    pub fn depth(&self, machine: &Machine, vmpl: Vmpl) -> Result<u32, OsError> {
        let mut header = [0u8; HEADER_LEN];
        machine.read_into(vmpl, gpa_of(self.gfn), &mut header)?;
        let magic = u32::from_le_bytes(header[0..4].try_into().expect("4"));
        let count = u32::from_le_bytes(header[4..8].try_into().expect("4"));
        if magic != MAGIC || count > RING_SLOTS {
            return Err(Refusal::GateRingCorrupt.into());
        }
        Ok(count)
    }

    /// Appends one entry, returning the new depth.
    ///
    /// # Errors
    ///
    /// Rejects oversized payloads and a full ring (callers drain first);
    /// RMP faults and a corrupt header surface as errors.
    pub fn push(
        &self,
        machine: &mut Machine,
        vmpl: Vmpl,
        kind: u8,
        payload: &[u8],
    ) -> Result<u32, OsError> {
        if payload.len() > SLOT_PAYLOAD {
            return Err(Refusal::MessageTooLong.into());
        }
        let count = self.depth(machine, vmpl)?;
        if count == RING_SLOTS {
            return Err(Refusal::GateRingFull.into());
        }
        let mut slot = [0u8; SLOT_HEADER_LEN];
        slot[0] = kind;
        slot[8..16].copy_from_slice(&(payload.len() as u64).to_le_bytes());
        machine.write(vmpl, self.slot_gpa(count), &slot)?;
        machine.write(vmpl, self.slot_gpa(count) + SLOT_HEADER_LEN as u64, payload)?;
        let new_count = count + 1;
        machine.write(vmpl, gpa_of(self.gfn) + 4, &new_count.to_le_bytes())?;
        Ok(new_count)
    }

    /// Reads slot `idx`, validating its header.
    ///
    /// # Errors
    ///
    /// Fails on RMP faults, an out-of-range index, or a slot length
    /// exceeding [`SLOT_PAYLOAD`].
    pub fn read_slot(
        &self,
        machine: &Machine,
        vmpl: Vmpl,
        idx: u32,
    ) -> Result<(u8, Vec<u8>), OsError> {
        if idx >= RING_SLOTS {
            return Err(Refusal::GateRingCorrupt.into());
        }
        let mut header = [0u8; SLOT_HEADER_LEN];
        machine.read_into(vmpl, self.slot_gpa(idx), &mut header)?;
        let kind = header[0];
        let len = u64::from_le_bytes(header[8..16].try_into().expect("8")) as usize;
        if len > SLOT_PAYLOAD {
            return Err(Refusal::GateRingCorrupt.into());
        }
        let payload = machine.read(vmpl, self.slot_gpa(idx) + SLOT_HEADER_LEN as u64, len)?;
        Ok((kind, payload))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use veil_snp::machine::MachineConfig;
    use veil_snp::perms::VmplPerms;

    fn machine_with_ring() -> (Machine, GateRing) {
        let mut m = Machine::new(MachineConfig { frames: 8, ..MachineConfig::default() });
        m.rmp_assign(3).unwrap();
        m.pvalidate(Vmpl::Vmpl0, 3, true).unwrap();
        m.rmpadjust(Vmpl::Vmpl0, 3, Vmpl::Vmpl1, VmplPerms::rw()).unwrap();
        m.rmpadjust(Vmpl::Vmpl0, 3, Vmpl::Vmpl3, VmplPerms::rw()).unwrap();
        let ring = GateRing::at(3);
        ring.reset(&mut m, Vmpl::Vmpl3).unwrap();
        (m, ring)
    }

    #[test]
    fn slots_fill_one_frame() {
        assert_eq!(RING_SLOTS, 15);
        assert_eq!(HEADER_LEN + RING_SLOTS as usize * SLOT_SIZE, PAGE_SIZE);
    }

    #[test]
    fn push_then_drain_across_domains() {
        let (mut m, ring) = machine_with_ring();
        assert_eq!(ring.depth(&m, Vmpl::Vmpl3).unwrap(), 0);
        assert_eq!(ring.push(&mut m, Vmpl::Vmpl3, 5, b"record-a").unwrap(), 1);
        assert_eq!(ring.push(&mut m, Vmpl::Vmpl3, 9, b"").unwrap(), 2);
        // Monitor side drains at VMPL-0.
        assert_eq!(ring.depth(&m, Vmpl::Vmpl0).unwrap(), 2);
        let (kind, payload) = ring.read_slot(&m, Vmpl::Vmpl0, 0).unwrap();
        assert_eq!((kind, payload.as_slice()), (5, b"record-a".as_slice()));
        let (kind, payload) = ring.read_slot(&m, Vmpl::Vmpl0, 1).unwrap();
        assert_eq!((kind, payload.len()), (9, 0));
    }

    #[test]
    fn full_ring_rejects_push() {
        let (mut m, ring) = machine_with_ring();
        for _ in 0..RING_SLOTS {
            ring.push(&mut m, Vmpl::Vmpl3, 1, b"x").unwrap();
        }
        assert_eq!(ring.push(&mut m, Vmpl::Vmpl3, 1, b"x"), Err(Refusal::GateRingFull.into()));
    }

    #[test]
    fn oversized_entry_rejected() {
        let (mut m, ring) = machine_with_ring();
        let big = vec![0u8; SLOT_PAYLOAD + 1];
        assert_eq!(ring.push(&mut m, Vmpl::Vmpl3, 1, &big), Err(Refusal::MessageTooLong.into()));
    }

    #[test]
    fn hostile_count_and_lengths_detected() {
        let corrupt = OsError::Refused(Refusal::GateRingCorrupt);
        let (mut m, ring) = machine_with_ring();
        ring.push(&mut m, Vmpl::Vmpl3, 1, b"x").unwrap();
        // Kernel lies about occupancy.
        m.write(Vmpl::Vmpl3, gpa_of(3) + 4, &(RING_SLOTS + 1).to_le_bytes()).unwrap();
        assert_eq!(ring.depth(&m, Vmpl::Vmpl0).unwrap_err(), corrupt);
        ring.reset(&mut m, Vmpl::Vmpl3).unwrap();
        // Kernel lies about a slot length.
        let mut slot = [0u8; 16];
        slot[8..16].copy_from_slice(&(PAGE_SIZE as u64).to_le_bytes());
        m.write(Vmpl::Vmpl3, gpa_of(3) + HEADER_LEN as u64, &slot).unwrap();
        assert_eq!(ring.read_slot(&m, Vmpl::Vmpl0, 0).unwrap_err(), corrupt);
        // Out-of-range index.
        assert_eq!(ring.read_slot(&m, Vmpl::Vmpl0, RING_SLOTS).unwrap_err(), corrupt);
        // Corrupt magic.
        m.write(Vmpl::Vmpl3, gpa_of(3), &[0xff; 4]).unwrap();
        assert_eq!(ring.depth(&m, Vmpl::Vmpl0).unwrap_err(), corrupt);
    }
}
