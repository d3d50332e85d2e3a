//! VeilS-ATT: chain attestation reports as a protected service.
//!
//! The untrusted kernel relays a remote verifier's challenge through the
//! gate (`MonRequest::AttestReport`); the `Dom_SER` side asks the simulated
//! SEV firmware for a full VCEK-chain report — chip seed → TCB-versioned
//! VCEK → launch-measurement-bound attestation key, with DICE-style
//! per-stage certificates (see [`veil_snp::vcek`]) — and answers with the
//! report's stable wire bytes. The kernel never sees key material, only
//! the serialized report it cannot forge; the verifier checks the whole
//! chain offline against VCEKs obtained out of band.
//!
//! Reports claim VMPL-0: the evidence covers the VeilMon TCB that
//! provisioned this service. The channel handshake
//! (`Monitor::begin_channel`) asks the firmware for the same report.

use veil_hv::Hypervisor;
use veil_os::error::{OsError, Refusal};
use veil_snp::perms::Vmpl;

/// The VeilS-ATT service state.
#[derive(Debug, Default)]
pub struct VeilAttest {
    reports: u64,
}

impl VeilAttest {
    /// A fresh service.
    pub fn new() -> Self {
        VeilAttest::default()
    }

    /// Produces the serialized chain report for `nonce`/`report_data`.
    /// Runs on the trusted side after the gate's switch; the firmware
    /// round trip charges one domain switch.
    ///
    /// # Errors
    ///
    /// [`Refusal::NotLaunched`] before launch (no measurement exists to
    /// attest).
    pub fn report(
        &mut self,
        hv: &mut Hypervisor,
        nonce: [u8; 32],
        report_data: [u8; 64],
    ) -> Result<Vec<u8>, OsError> {
        let report =
            hv.machine.attest_chain(Vmpl::Vmpl0, nonce, report_data).ok_or(Refusal::NotLaunched)?;
        self.reports += 1;
        Ok(report.to_bytes())
    }

    /// Reports served since boot.
    pub fn report_count(&self) -> u64 {
        self.reports
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use veil_snp::machine::{Machine, MachineConfig};
    use veil_snp::vcek::ChainReport;

    #[test]
    fn report_requires_launch() {
        let machine = Machine::new(MachineConfig { frames: 64, ..MachineConfig::default() });
        let mut hv = Hypervisor::new(machine);
        let mut att = VeilAttest::new();
        assert!(att.report(&mut hv, [0; 32], [0; 64]).is_err());
        hv.launch(&[(1, b"img".to_vec())], 2).unwrap();
        let bytes = att.report(&mut hv, [7; 32], [8; 64]).unwrap();
        assert_eq!(att.report_count(), 1);
        // The bytes verify against the machine's own KDS-derived VCEK.
        let report = ChainReport::from_bytes(&bytes).unwrap();
        let mut v = hv.machine.kds_verifier(hv.machine.launch_measurement().unwrap());
        assert_eq!(v.verify(&report, &[7; 32]), Ok(()));
    }
}
