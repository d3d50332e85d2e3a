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
//! `count` is the number of occupied slots. The kernel is the ring's only
//! producer, so it writes entry `i` of its batch into slot `i` and never
//! reads the ring back. The drain side treats
//! the whole page as untrusted input: it re-validates magic and count, and
//! copies each slot once into a private [`SlotBuf`] whose length it checks
//! before parsing (§8.1 — the kernel, or a hostile hypervisor-colluding
//! kernel, can scribble anything here).

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

/// A private copy of one slot, held by the drain side: the header and the
/// payload are validated and parsed from this copy, never from the shared
/// page. Stored as 8-byte words, so the header fields read without a
/// fallible slice conversion.
#[derive(Debug)]
pub struct SlotBuf([[u8; 8]; SLOT_SIZE / 8]);

// The words must cover the slot exactly.
const _: () = assert!(SLOT_SIZE.is_multiple_of(8));

impl Default for SlotBuf {
    fn default() -> Self {
        SlotBuf([[0; 8]; SLOT_SIZE / 8])
    }
}

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
        let mut header = [[0u8; 4]; HEADER_LEN / 4];
        machine.read_into(vmpl, gpa_of(self.gfn), header.as_flattened_mut())?;
        let [magic, count, ..] = header.map(u32::from_le_bytes);
        if magic != MAGIC || count > RING_SLOTS {
            return Err(Refusal::GateRingCorrupt.into());
        }
        Ok(count)
    }

    /// Writes entry `idx` (header and payload in one write), then sets the
    /// count to `idx + 1`, which it returns. The kernel is the only
    /// producer and passes its own batch length as `idx`, so the ring is
    /// never read back here; the drain side validates what it finds.
    ///
    /// # Errors
    ///
    /// Rejects oversized payloads and an index past the last slot (callers
    /// drain first); RMP faults surface as errors.
    pub fn push(
        &self,
        machine: &mut Machine,
        vmpl: Vmpl,
        idx: u32,
        kind: u8,
        payload: &[u8],
    ) -> Result<u32, OsError> {
        if payload.len() > SLOT_PAYLOAD {
            return Err(Refusal::MessageTooLong.into());
        }
        if idx >= RING_SLOTS {
            return Err(Refusal::GateRingFull.into());
        }
        let end = SLOT_HEADER_LEN + payload.len();
        let mut slot = [0u8; SLOT_SIZE];
        slot[0] = kind;
        slot[8..SLOT_HEADER_LEN].copy_from_slice(&(payload.len() as u64).to_le_bytes());
        slot[SLOT_HEADER_LEN..end].copy_from_slice(payload);
        machine.write(vmpl, self.slot_gpa(idx), &slot[..end])?;
        let count = idx + 1;
        machine.write(vmpl, gpa_of(self.gfn) + 4, &count.to_le_bytes())?;
        Ok(count)
    }

    /// Copies slot `idx` into `buf` and validates its header, returning
    /// the kind byte and the payload (borrowed from `buf`).
    ///
    /// # Errors
    ///
    /// Fails on RMP faults, an out-of-range index, or a slot length
    /// exceeding [`SLOT_PAYLOAD`].
    pub fn read_slot<'b>(
        &self,
        machine: &Machine,
        vmpl: Vmpl,
        idx: u32,
        buf: &'b mut SlotBuf,
    ) -> Result<(u8, &'b [u8]), OsError> {
        if idx >= RING_SLOTS {
            return Err(Refusal::GateRingCorrupt.into());
        }
        machine.read_into(vmpl, self.slot_gpa(idx), buf.0.as_flattened_mut())?;
        let [[kind, ..], len, payload @ ..] = &buf.0;
        let len = u64::from_le_bytes(*len);
        if len > SLOT_PAYLOAD as u64 {
            return Err(Refusal::GateRingCorrupt.into());
        }
        Ok((*kind, &payload.as_flattened()[..len as usize]))
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
        assert_eq!(ring.push(&mut m, Vmpl::Vmpl3, 0, 5, b"record-a").unwrap(), 1);
        assert_eq!(ring.push(&mut m, Vmpl::Vmpl3, 1, 9, b"").unwrap(), 2);
        // Monitor side drains at VMPL-0.
        assert_eq!(ring.depth(&m, Vmpl::Vmpl0).unwrap(), 2);
        let mut buf = SlotBuf::default();
        let (kind, payload) = ring.read_slot(&m, Vmpl::Vmpl0, 0, &mut buf).unwrap();
        assert_eq!((kind, payload), (5, b"record-a".as_slice()));
        let (kind, payload) = ring.read_slot(&m, Vmpl::Vmpl0, 1, &mut buf).unwrap();
        assert_eq!((kind, payload.len()), (9, 0));
    }

    #[test]
    fn full_ring_rejects_push() {
        let (mut m, ring) = machine_with_ring();
        for idx in 0..RING_SLOTS {
            ring.push(&mut m, Vmpl::Vmpl3, idx, 1, b"x").unwrap();
        }
        assert_eq!(
            ring.push(&mut m, Vmpl::Vmpl3, RING_SLOTS, 1, b"x"),
            Err(Refusal::GateRingFull.into())
        );
    }

    #[test]
    fn oversized_entry_rejected() {
        let (mut m, ring) = machine_with_ring();
        let big = vec![0u8; SLOT_PAYLOAD + 1];
        assert_eq!(ring.push(&mut m, Vmpl::Vmpl3, 0, 1, &big), Err(Refusal::MessageTooLong.into()));
    }

    #[test]
    fn hostile_count_and_lengths_detected() {
        let corrupt = OsError::Refused(Refusal::GateRingCorrupt);
        let (mut m, ring) = machine_with_ring();
        let mut buf = SlotBuf::default();
        ring.push(&mut m, Vmpl::Vmpl3, 0, 1, b"x").unwrap();
        // Kernel lies about occupancy.
        m.write(Vmpl::Vmpl3, gpa_of(3) + 4, &(RING_SLOTS + 1).to_le_bytes()).unwrap();
        assert_eq!(ring.depth(&m, Vmpl::Vmpl0).unwrap_err(), corrupt);
        ring.reset(&mut m, Vmpl::Vmpl3).unwrap();
        // Kernel lies about a slot length.
        let mut slot = [0u8; 16];
        slot[8..16].copy_from_slice(&(PAGE_SIZE as u64).to_le_bytes());
        m.write(Vmpl::Vmpl3, gpa_of(3) + HEADER_LEN as u64, &slot).unwrap();
        assert_eq!(ring.read_slot(&m, Vmpl::Vmpl0, 0, &mut buf).unwrap_err(), corrupt);
        // Out-of-range index.
        assert_eq!(ring.read_slot(&m, Vmpl::Vmpl0, RING_SLOTS, &mut buf).unwrap_err(), corrupt);
        // Corrupt magic.
        m.write(Vmpl::Vmpl3, gpa_of(3), &[0xff; 4]).unwrap();
        assert_eq!(ring.depth(&m, Vmpl::Vmpl0).unwrap_err(), corrupt);
    }
}
