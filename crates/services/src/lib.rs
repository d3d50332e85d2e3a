//! Veil's three protected services (§6) and the standard CVM assembly.
//!
//! * [`kci`] — **VeilS-KCI**: kernel code integrity. W⊕X over kernel
//!   memory enforced with VMPL permissions, plus TOCTOU-safe signed
//!   module verification and installation (§6.1).
//! * [`enc`] — **VeilS-ENC**: shielded program execution. SGX-style
//!   in-process enclaves at `Dom_ENC` with protected page tables,
//!   measurement, sealed demand paging, and user-mapped GHCB entry/exit
//!   (§6.2).
//! * [`log`] — **VeilS-LOG**: tamper-proof system audit logs in reserved
//!   append-only `Dom_SER` storage with execute-ahead relay (§6.3).
//! * [`attest`] — **VeilS-ATT**: VCEK-chain attestation reports served
//!   over the gate path (DESIGN.md §15).
//!
//! [`VeilServices`] bundles all three behind
//! [`veil_core::service::ServiceDispatch`]. [`Cvm`] and [`CvmBuilder`]
//! are aliases of the one core CVM type and its builder with that bundle
//! filled in.
//!
//! # Example
//!
//! ```
//! use veil_services::CvmBuilder;
//!
//! let mut cvm = CvmBuilder::new().frames(2048).build().expect("boot");
//! // Kernel text is now W⊕X-protected by VeilS-KCI:
//! let text = cvm.gate.monitor.layout.kernel_text.start;
//! let gpa = text * 4096;
//! assert!(cvm.hv.machine.write(veil_snp::perms::Vmpl::Vmpl3, gpa, b"inject").is_err());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod attest;
pub mod enc;
pub mod kci;
pub mod log;
pub mod stat;

use veil_core::cvm::VeilCvm;
use veil_core::monitor::Monitor;
use veil_core::service::{KernelHandoff, ServiceDispatch};
use veil_hv::Hypervisor;
use veil_os::error::{OsError, Refusal};
use veil_os::monitor::{MonRequest, MonResponse};

pub use attest::VeilAttest;
pub use enc::{Enclave, EnclaveMeasurement, VeilSEnc};
pub use kci::VeilSKci;
pub use log::VeilSLog;
pub use stat::VeilStat;

/// The standard protected-service bundle (KCI + ENC + LOG + STAT).
#[derive(Debug, Default)]
pub struct VeilServices {
    /// Kernel code integrity.
    pub kci: VeilSKci,
    /// Shielded execution.
    pub enc: VeilSEnc,
    /// Audit-log protection.
    pub log: VeilSLog,
    /// Metrics snapshots over the protected channel.
    pub stat: VeilStat,
    /// Chain attestation reports over the protected channel.
    pub attest: VeilAttest,
}

impl ServiceDispatch for VeilServices {
    fn on_boot(
        &mut self,
        monitor: &mut Monitor,
        hv: &mut Hypervisor,
        handoff: &KernelHandoff,
    ) -> Result<(), OsError> {
        self.kci.on_boot(monitor, hv, handoff)?;
        self.log.on_boot(monitor)?;
        Ok(())
    }

    fn dispatch(
        &mut self,
        monitor: &mut Monitor,
        hv: &mut Hypervisor,
        vcpu: u32,
        req: &MonRequest,
    ) -> Result<MonResponse, OsError> {
        match req {
            MonRequest::KciModuleLoad { staging_gfns, image_len, dest_gfns } => {
                self.kci.module_load(monitor, hv, staging_gfns, *image_len, dest_gfns)?;
                Ok(MonResponse::Ok)
            }
            MonRequest::KciModuleUnload { text_gfns } => {
                self.kci.module_unload(monitor, hv, text_gfns)?;
                Ok(MonResponse::Ok)
            }
            MonRequest::LogAppend { record } => {
                self.log.append(hv, record)?;
                Ok(MonResponse::Ok)
            }
            MonRequest::EncFinalize { pid, cr3_gfn, base_vaddr, len, ghcb_gfn } => {
                let id = self.enc.finalize(
                    monitor,
                    hv,
                    vcpu,
                    *pid,
                    *cr3_gfn,
                    *base_vaddr,
                    *len,
                    *ghcb_gfn,
                )?;
                Ok(MonResponse::Value(id))
            }
            MonRequest::EncPageOut { enclave_id, vaddr } => {
                self.enc.page_out(monitor, hv, *enclave_id, *vaddr)?;
                Ok(MonResponse::Ok)
            }
            MonRequest::EncPageIn { enclave_id, vaddr, staging_gfn, dest_gfn } => {
                self.enc.page_in(monitor, hv, *enclave_id, *vaddr, *staging_gfn, *dest_gfn)?;
                Ok(MonResponse::Ok)
            }
            MonRequest::EncMapSync { enclave_id, base_vaddr, pages, map } => {
                self.enc.map_sync(monitor, hv, *enclave_id, *base_vaddr, *pages, *map)?;
                Ok(MonResponse::Ok)
            }
            MonRequest::EncPermSync { enclave_id, vaddr, pte_flags } => {
                self.enc.perm_sync(hv, *enclave_id, *vaddr, *pte_flags)?;
                Ok(MonResponse::Ok)
            }
            MonRequest::EncAddThread { enclave_id, vcpu, ghcb_gfn } => {
                let vmsa = self.enc.add_thread(monitor, hv, *enclave_id, *vcpu, *ghcb_gfn)?;
                Ok(MonResponse::Value(vmsa))
            }
            MonRequest::EncDestroy { enclave_id } => {
                self.enc.destroy(monitor, hv, *enclave_id)?;
                Ok(MonResponse::Ok)
            }
            MonRequest::StatSnapshot => Ok(MonResponse::Bytes(self.stat.snapshot(hv))),
            MonRequest::AttestReport { nonce, report_data } => {
                Ok(MonResponse::Bytes(self.attest.report(hv, *nonce, *report_data)?))
            }
            // Architectural delegations terminate in VeilMon, not here.
            MonRequest::Pvalidate { .. } | MonRequest::CreateVcpu { .. } => {
                Err(Refusal::NoService.into())
            }
        }
    }
}

/// The standard Veil CVM: monitor + all three services + kernel.
pub type Cvm = VeilCvm<VeilServices>;

// The concrete shard payload the fleet scheduler hands to worker threads.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<Cvm>();
};

/// The builder of the standard [`Cvm`]: [`veil_core::cvm::CvmBuilder`]
/// with this crate's service bundle. `build_native` boots the baseline
/// with identical geometry.
pub type CvmBuilder = veil_core::cvm::CvmBuilder<VeilServices>;

#[cfg(test)]
mod tests {
    use super::*;
    use veil_core::cvm::VENDOR_KEY;
    use veil_os::audit::AuditMode;
    use veil_os::module::ModuleImage;
    use veil_os::sys::{OpenFlags, Sys};
    use veil_snp::perms::Vmpl;

    #[test]
    fn standard_cvm_boots_with_all_services() {
        let mut cvm = CvmBuilder::new().frames(2048).build().unwrap();
        assert_eq!(cvm.kernel.vmpl, Vmpl::Vmpl3, "kernel deprivileged under Veil");
        // LOG reserved storage exists and is sealed from the OS.
        let log_gpa = cvm.gate.monitor.layout.log_storage.start * 4096;
        assert!(cvm.hv.machine.write(Vmpl::Vmpl3, log_gpa, b"tamper").is_err());
        // Basic syscalls still work.
        let pid = cvm.spawn();
        let mut sys = cvm.sys(pid);
        let fd = sys.open("/tmp/ok", OpenFlags::rdwr_create()).unwrap();
        sys.write(fd, b"services up").unwrap();
    }

    #[test]
    fn kci_module_load_through_full_stack() {
        let mut cvm = CvmBuilder::new().frames(2048).build().unwrap();
        assert!(cvm.kernel.kci);
        let image = ModuleImage::build_signed("vio_net", 8192, &VENDOR_KEY);
        let (kernel, mut ctx) = cvm.kctx();
        kernel.load_module(&mut ctx, &image).unwrap();
        let module = &cvm.kernel.modules["vio_net"];
        assert!(module.kci_protected);
        // Installed text is write-protected from the OS but readable.
        let gpa = module.text_gfns[0] * 4096;
        assert!(cvm.hv.machine.read(Vmpl::Vmpl3, gpa, 8).is_ok());
        assert!(cvm.hv.machine.write(Vmpl::Vmpl3, gpa, b"patch").is_err());
    }

    #[test]
    fn attest_report_served_over_the_gate() {
        use veil_os::monitor::{MonRequest, MonResponse, MonitorChannel};
        use veil_snp::vcek::ChainReport;

        let mut cvm = CvmBuilder::new().frames(2048).build().unwrap();
        let nonce = [0x41; 32];
        let resp = cvm
            .gate
            .request(&mut cvm.hv, 0, MonRequest::AttestReport { nonce, report_data: [0x42; 64] })
            .unwrap();
        let MonResponse::Bytes(bytes) = resp else { panic!("expected report bytes") };
        assert_eq!(cvm.gate.services.attest.report_count(), 1);

        // Offline verification with KDS-style out-of-band VCEK.
        let report = ChainReport::from_bytes(&bytes).unwrap();
        let mut verifier =
            cvm.hv.machine.kds_verifier(cvm.hv.machine.launch_measurement().unwrap());
        assert_eq!(verifier.verify(&report, &nonce), Ok(()));
        // Replaying the same report must fail.
        assert!(verifier.verify(&report, &nonce).is_err());

        // Batched path: a deferred report drains without error (the
        // response is fire-and-forget).
        cvm.gate
            .request_deferred(
                &mut cvm.hv,
                0,
                MonRequest::AttestReport { nonce: [0x43; 32], report_data: [0; 64] },
            )
            .unwrap();
        cvm.flush_gate().unwrap();
        assert_eq!(cvm.gate.deferred_errors(), 0);
        assert_eq!(cvm.gate.services.attest.report_count(), 2);
    }

    #[test]
    fn veil_log_records_flow_to_protected_storage() {
        let mut cvm = CvmBuilder::new().frames(2048).build().unwrap();
        cvm.kernel.audit.mode = AuditMode::VeilLog;
        cvm.kernel.audit.rules = veil_os::audit::paper_ruleset();
        let pid = cvm.spawn();
        let mut sys = cvm.sys(pid);
        let fd = sys.open("/tmp/audited", OpenFlags::rdwr_create()).unwrap();
        sys.write(fd, b"x").unwrap();
        sys.close(fd).unwrap();
        // Batched gate path: the records sit in the ring until a drain.
        cvm.flush_gate().unwrap();
        assert_eq!(cvm.kernel.audit_failures, 0);
        assert_eq!(cvm.gate.services.log.record_count(), 3, "open+write+close");
        // Records live in Dom_SER storage, not kernel memory.
        assert!(cvm.kernel.audit.kaudit_log.is_empty());
    }
}
