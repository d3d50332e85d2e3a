//! VeilS-LOG: system audit log protection (§6.3).
//!
//! A large reserved region in `Dom_SER` memory holds audit records in an
//! append-only layout. The kernel's `audit_log_end` hook relays each
//! record through the IDCB + domain switch *before* the audited event
//! proceeds (execute-ahead), so records survive a later kernel
//! compromise. Only the remote user — over the attested secure channel —
//! can retrieve and prune the log.

use std::ops::Range;
use veil_core::monitor::Monitor;
use veil_core::remote::SecureChannel;
use veil_hv::Hypervisor;
use veil_os::audit::AuditRecord;
use veil_os::error::{OsError, Refusal};
use veil_snp::cost::CostCategory;
use veil_snp::mem::{gpa_of, PAGE_SIZE};
use veil_snp::perms::Vmpl;

/// Each stored record is `len(4 bytes) || payload`.
const LEN_PREFIX: usize = 4;

/// VeilS-LOG state.
#[derive(Debug, Default)]
pub struct VeilSLog {
    storage: Range<u64>,
    /// Write offset in bytes from the start of storage.
    head: u64,
    /// Records currently stored.
    records: u64,
    /// Records refused because storage was full.
    pub dropped: u64,
    /// The next stored image, `len || payload`, built here so each record
    /// reaches storage in one write without a fresh allocation.
    staged: Vec<u8>,
}

impl VeilSLog {
    /// Binds the reserved storage region (called at boot).
    ///
    /// # Errors
    ///
    /// Fails if the layout reserved no storage.
    pub fn on_boot(&mut self, monitor: &mut Monitor) -> Result<(), OsError> {
        let storage = monitor.layout.log_storage.clone();
        if storage.is_empty() {
            return Err(Refusal::NoLogStorage.into());
        }
        self.storage = storage;
        Ok(())
    }

    /// Total storage capacity in bytes.
    pub fn capacity(&self) -> u64 {
        (self.storage.end - self.storage.start) * PAGE_SIZE as u64
    }

    /// Bytes currently used.
    pub fn used(&self) -> u64 {
        self.head
    }

    /// Records currently stored.
    pub fn record_count(&self) -> u64 {
        self.records
    }

    fn gpa(&self, offset: u64) -> u64 {
        gpa_of(self.storage.start) + offset
    }

    /// Appends one record (the `LogAppend` service request).
    ///
    /// # Errors
    ///
    /// [`Refusal::LogFull`] when the region is exhausted — the paper sizes
    /// the region so the user retrieves before overflow; refusing (rather
    /// than overwriting) preserves the append-only guarantee and the
    /// failure is visible to the operator.
    pub fn append(&mut self, hv: &mut Hypervisor, record: &[u8]) -> Result<(), OsError> {
        let needed = (LEN_PREFIX + record.len()) as u64;
        if self.head + needed > self.capacity() {
            self.dropped += 1;
            return Err(Refusal::LogFull.into());
        }
        let work = hv.machine.cost().veil_log_record + hv.machine.cost().copy(record.len());
        hv.machine.charge(CostCategory::AuditLog, work);
        self.staged.clear();
        self.staged.extend_from_slice(&(record.len() as u32).to_le_bytes());
        self.staged.extend_from_slice(record);
        hv.machine.write(Vmpl::Vmpl1, self.gpa(self.head), &self.staged)?;
        self.head += needed;
        self.records += 1;
        Ok(())
    }

    /// Reads every stored record (trusted-side accessor; used by
    /// retrieval and by tests to verify storage contents).
    ///
    /// # Errors
    ///
    /// Storage corruption (impossible through the public API) surfaces as
    /// a config error.
    pub fn read_all(&self, hv: &Hypervisor) -> Result<Vec<Vec<u8>>, OsError> {
        let mut out = Vec::with_capacity(self.records as usize);
        let mut offset = 0u64;
        while offset < self.head {
            let mut len = [0u8; LEN_PREFIX];
            hv.machine.read_into(Vmpl::Vmpl1, self.gpa(offset), &mut len)?;
            let len = u32::from_le_bytes(len) as usize;
            if offset + (LEN_PREFIX + len) as u64 > self.head {
                return Err(Refusal::LogCorrupt.into());
            }
            out.push(hv.machine.read(Vmpl::Vmpl1, self.gpa(offset + LEN_PREFIX as u64), len)?);
            offset += (LEN_PREFIX + len) as u64;
        }
        Ok(out)
    }

    /// Parses stored records into [`AuditRecord`]s (diagnostics).
    pub fn parsed_records(&self, hv: &Hypervisor) -> Result<Vec<AuditRecord>, OsError> {
        Ok(self.read_all(hv)?.iter().filter_map(|bytes| AuditRecord::from_bytes(bytes)).collect())
    }

    /// Remote retrieval (§6.3): the user sends a sealed `"retrieve"`
    /// command over the secure channel; the service returns every record
    /// sealed under the channel and — only then — prunes the storage
    /// ("only the remote user can ask for stored logs to be removed").
    ///
    /// # Errors
    ///
    /// An unauthenticated command is refused without touching the log.
    pub fn retrieve_for_user(
        &mut self,
        hv: &mut Hypervisor,
        service_channel: &mut SecureChannel,
        sealed_command: &[u8],
    ) -> Result<Vec<Vec<u8>>, OsError> {
        match service_channel.open(sealed_command) {
            Ok(command) if command == b"retrieve-and-prune" => {}
            _ => return Err(Refusal::BadLogCommand.into()),
        }
        let records = self.read_all(hv)?;
        let sealed: Vec<Vec<u8>> = records.iter().map(|r| service_channel.seal(r)).collect();
        let crypt = hv.machine.cost().copy(self.head as usize) + records.len() as u64 * 64;
        hv.machine.charge(CostCategory::AuditLog, crypt);
        self.head = 0;
        self.records = 0;
        Ok(sealed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CvmBuilder;

    fn cvm() -> crate::Cvm {
        CvmBuilder::new().frames(2048).log_frames(2).build().unwrap()
    }

    #[test]
    fn append_and_read_back() {
        let mut cvm = cvm();
        let log = &mut cvm.gate.services.log;
        log.append(&mut cvm.hv, b"record one").unwrap();
        log.append(&mut cvm.hv, b"record two").unwrap();
        assert_eq!(log.record_count(), 2);
        let all = log.read_all(&cvm.hv).unwrap();
        assert_eq!(all, vec![b"record one".to_vec(), b"record two".to_vec()]);
    }

    #[test]
    fn storage_full_refuses_and_counts() {
        let mut cvm = cvm();
        let log = &mut cvm.gate.services.log;
        let big = vec![0xabu8; 4000];
        let mut stored = 0;
        while log.append(&mut cvm.hv, &big).is_ok() {
            stored += 1;
        }
        assert_eq!(stored, 2, "two 4 KB records fit in 2 frames");
        assert_eq!(log.dropped, 1);
        // Earlier records intact (append-only, no overwrite).
        assert_eq!(log.read_all(&cvm.hv).unwrap().len(), 2);
    }

    #[test]
    fn retrieval_requires_authentication() {
        let mut cvm = cvm();
        let shared = [9u8; 32];
        let mut user = SecureChannel::new(shared);
        let mut service = SecureChannel::new(shared);
        cvm.gate.services.log.append(&mut cvm.hv, b"evidence").unwrap();

        // A forged (unsealed) command fails.
        let err = cvm.gate.services.log.retrieve_for_user(
            &mut cvm.hv,
            &mut service.clone(),
            b"retrieve-and-prune",
        );
        assert!(err.is_err());
        assert_eq!(cvm.gate.services.log.record_count(), 1, "log untouched");

        // The genuine user command round-trips.
        let cmd = user.seal(b"retrieve-and-prune");
        let sealed =
            cvm.gate.services.log.retrieve_for_user(&mut cvm.hv, &mut service, &cmd).unwrap();
        assert_eq!(sealed.len(), 1);
        assert_eq!(user.open(&sealed[0]).unwrap(), b"evidence");
        assert_eq!(cvm.gate.services.log.record_count(), 0, "pruned after retrieval");
    }

    #[test]
    fn os_cannot_touch_storage_directly() {
        let mut cvm = cvm();
        cvm.gate.services.log.append(&mut cvm.hv, b"tamper target").unwrap();
        let gpa = gpa_of(cvm.gate.monitor.layout.log_storage.start);
        assert!(cvm.hv.machine.write(Vmpl::Vmpl3, gpa, b"override").is_err());
        assert!(cvm.hv.machine.read(Vmpl::Vmpl3, gpa, 16).is_err());
        // And neither can an enclave (VMPL-2).
        assert!(cvm.hv.machine.write(Vmpl::Vmpl2, gpa, b"override").is_err());
    }
}
