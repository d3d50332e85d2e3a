//! The kernel→monitor request ABI and channel.
//!
//! Under Veil, the kernel executes at `Dom_UNT` and is architecturally
//! barred from `PVALIDATE` and VMSA creation (§5.3), and its protected-
//! service hooks (module loading, audit logging, enclave management) must
//! reach trusted code. All of that flows through one chokepoint: a
//! [`MonRequest`] transcribed into the per-VCPU inter-domain communication
//! block (IDCB) followed by a hypervisor-relayed domain switch (§5.2).
//!
//! The [`MonitorChannel`] trait is the kernel's view of that chokepoint.
//! `veil-core` implements it with the real IDCB + VMGEXIT protocol; the
//! [`NativeMonitor`] implements it for the *baseline* CVM (kernel at
//! VMPL-0, no Veil), executing the privileged instructions directly.

use crate::error::{OsError, Refusal};
use veil_hv::Hypervisor;
use veil_snp::perms::{Cpl, Vmpl};

/// A request from the untrusted kernel to VeilMon / a protected service.
///
/// This is the IDCB message format. Large payloads (module images) are
/// staged in guest memory and *referenced* by frame list, as in the real
/// system — forcing the monitor side to sanitize the pointers (§8.1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MonRequest {
    /// §5.3 page-state-change delegation: validate/invalidate a frame.
    Pvalidate {
        /// Frame to (in)validate.
        gfn: u64,
        /// `true` to validate (accept), `false` to invalidate (release).
        validate: bool,
    },
    /// §5.3 VCPU-boot delegation: the kernel prepared the register state;
    /// the monitor must create the VMSA and announce it to the hypervisor.
    CreateVcpu {
        /// Identifier of the VCPU being hotplugged.
        vcpu_id: u32,
        /// Initial instruction pointer.
        rip: u64,
        /// Initial stack pointer.
        rsp: u64,
        /// Initial page-table root.
        cr3: u64,
    },
    /// VeilS-KCI (§6.1): verify + load a kernel module staged in guest
    /// frames. The monitor checks the signature, copies the text into the
    /// destination frames, applies relocations from the protected symbol
    /// table, and write-protects the result.
    KciModuleLoad {
        /// Frames where the kernel staged the raw module image.
        staging_gfns: Vec<u64>,
        /// Exact image length in bytes.
        image_len: usize,
        /// Frames the module text should be installed into.
        dest_gfns: Vec<u64>,
    },
    /// VeilS-KCI: unload the module installed at these frames (re-enables
    /// write so the kernel can reuse the memory).
    KciModuleUnload {
        /// Frames holding the module text.
        text_gfns: Vec<u64>,
    },
    /// VeilS-LOG (§6.3): append one audit record (execute-ahead: the
    /// kernel blocks until the record is in protected storage).
    LogAppend {
        /// Serialized audit record.
        record: Vec<u8>,
    },
    /// VeilS-ENC (§6.2): finalize an enclave the kernel just installed.
    EncFinalize {
        /// Owning process.
        pid: u32,
        /// Page-table root of the process address space.
        cr3_gfn: u64,
        /// Enclave virtual range start (page aligned).
        base_vaddr: u64,
        /// Enclave virtual range length in bytes.
        len: usize,
        /// The per-thread user-mapped GHCB frame.
        ghcb_gfn: u64,
    },
    /// VeilS-ENC: the OS wants an enclave page back (demand paging out).
    EncPageOut {
        /// Enclave handle.
        enclave_id: u64,
        /// Enclave-virtual page address to evict.
        vaddr: u64,
    },
    /// VeilS-ENC: page fault service — re-install a sealed page the OS
    /// fetched back from its swap store.
    EncPageIn {
        /// Enclave handle.
        enclave_id: u64,
        /// Enclave-virtual page address.
        vaddr: u64,
        /// Frame the OS staged the sealed bytes into.
        staging_gfn: u64,
        /// Frame the plaintext page should be installed into.
        dest_gfn: u64,
    },
    /// VeilS-ENC: mirror an OS mmap/munmap of a *non-enclave* region into
    /// the protected enclave page tables so the enclave can reach shared
    /// buffers (§6.2 mapping synchronization).
    EncMapSync {
        /// Enclave handle.
        enclave_id: u64,
        /// First virtual page address of the region.
        base_vaddr: u64,
        /// Number of pages.
        pages: u64,
        /// `true` for map, `false` for unmap.
        map: bool,
    },
    /// VeilS-ENC: synchronize a permission change of a *non-enclave*
    /// region into the protected enclave page tables (§6.2 mprotect sync).
    EncPermSync {
        /// Enclave handle.
        enclave_id: u64,
        /// Virtual page address.
        vaddr: u64,
        /// New PTE flag bits.
        pte_flags: u64,
    },
    /// VeilS-ENC (§7 multi-threading): the OS scheduler requests a new
    /// enclave thread context on `vcpu`.
    EncAddThread {
        /// Enclave handle.
        enclave_id: u64,
        /// VCPU the thread should be able to run on.
        vcpu: u32,
        /// The thread's user-mapped GHCB frame.
        ghcb_gfn: u64,
    },
    /// VeilS-ENC: tear an enclave down and return its frames.
    EncDestroy {
        /// Enclave handle.
        enclave_id: u64,
    },
    /// `veilstat`: fetch the protected-side metrics snapshot (the JSON
    /// document of `veil_metrics::export::json_snapshot`) through the
    /// service-call path — the framework observing itself over its own
    /// protected channel.
    StatSnapshot,
    /// VeilS-ATT: produce a signed VCEK-chain attestation report
    /// (§5.1 + DESIGN.md §15). The kernel relays a remote verifier's
    /// challenge; the trusted side answers with the serialized
    /// [`veil_snp::vcek::ChainReport`] bytes. Batched-path compatible like
    /// every other service request (a deferred report is simply a report
    /// whose bytes nobody reads).
    AttestReport {
        /// Verifier-issued freshness challenge, echoed in the report.
        nonce: [u8; 32],
        /// Requester-chosen binding data (e.g. a DH public key).
        report_data: [u8; 64],
    },
}

/// Monitor response carried back through the IDCB.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MonResponse {
    /// Request succeeded.
    Ok,
    /// Request succeeded with a scalar result (handle, address, ...).
    Value(u64),
    /// Request succeeded with a byte payload (sealed page, ...).
    Bytes(Vec<u8>),
}

impl MonRequest {
    /// Stable numeric tag identifying the request kind in the IDCB wire
    /// header.
    pub fn kind_code(&self) -> u8 {
        match self {
            MonRequest::Pvalidate { .. } => 1,
            MonRequest::CreateVcpu { .. } => 2,
            MonRequest::KciModuleLoad { .. } => 3,
            MonRequest::KciModuleUnload { .. } => 4,
            MonRequest::LogAppend { .. } => 5,
            MonRequest::EncFinalize { .. } => 6,
            MonRequest::EncPageOut { .. } => 7,
            MonRequest::EncPageIn { .. } => 8,
            MonRequest::EncMapSync { .. } => 9,
            MonRequest::EncPermSync { .. } => 10,
            MonRequest::EncAddThread { .. } => 11,
            MonRequest::EncDestroy { .. } => 12,
            MonRequest::StatSnapshot => 13,
            MonRequest::AttestReport { .. } => 15,
        }
    }

    /// Approximate serialized size of the request header + inline payload,
    /// used to charge IDCB copy costs.
    pub fn wire_len(&self) -> usize {
        match self {
            MonRequest::Pvalidate { .. } => 24,
            MonRequest::CreateVcpu { .. } => 40,
            MonRequest::KciModuleLoad { staging_gfns, dest_gfns, .. } => {
                32 + 8 * (staging_gfns.len() + dest_gfns.len())
            }
            MonRequest::KciModuleUnload { text_gfns } => 16 + 8 * text_gfns.len(),
            MonRequest::LogAppend { record } => 16 + record.len(),
            MonRequest::EncFinalize { .. } => 48,
            MonRequest::EncPageOut { .. } => 24,
            MonRequest::EncPageIn { .. } => 40,
            MonRequest::EncMapSync { .. } => 40,
            MonRequest::EncPermSync { .. } => 32,
            MonRequest::EncAddThread { .. } => 32,
            MonRequest::EncDestroy { .. } => 16,
            MonRequest::StatSnapshot => 16,
            MonRequest::AttestReport { .. } => 16 + 32 + 64,
        }
    }
}

/// The kernel's channel to trusted software.
pub trait MonitorChannel {
    /// Sends `req` on behalf of `vcpu_id` and blocks for the response.
    ///
    /// # Errors
    ///
    /// [`OsError::Refused`] when the monitor rejects the request (bad
    /// pointer, bad signature, invariant violation...), or any underlying
    /// machine error.
    fn request(
        &mut self,
        hv: &mut Hypervisor,
        vcpu_id: u32,
        req: MonRequest,
    ) -> Result<MonResponse, OsError>;

    /// Queues `req` for a later [`MonitorChannel::flush`]; the caller gives
    /// up the response (fire-and-forget, §5.2 batched gate path). A channel
    /// without batching support executes the request synchronously and
    /// discards the response.
    ///
    /// # Errors
    ///
    /// Only transcription failures (oversized payload, no ring). Dispatch
    /// errors surface at flush time, if at all.
    fn request_deferred(
        &mut self,
        hv: &mut Hypervisor,
        vcpu_id: u32,
        req: MonRequest,
    ) -> Result<(), OsError> {
        self.request(hv, vcpu_id, req).map(|_| ())
    }

    /// Drains any requests queued by [`MonitorChannel::request_deferred`]
    /// under a single domain switch. A no-op on channels without batching.
    ///
    /// # Errors
    ///
    /// Any underlying machine or switch error.
    fn flush(&mut self, hv: &mut Hypervisor, vcpu_id: u32) -> Result<(), OsError> {
        let _ = (hv, vcpu_id);
        Ok(())
    }

    /// The VMPL the kernel executes at under this monitor.
    fn kernel_vmpl(&self) -> Vmpl;
}

/// Baseline monitor for a *native* CVM without Veil: the kernel itself
/// runs at VMPL-0 and executes privileged operations directly. Only the
/// two architectural delegations are meaningful; protected-service
/// requests are refused (no such services exist natively).
#[derive(Debug, Clone)]
pub struct NativeMonitor {
    /// Frame pool for VMSAs the native kernel creates.
    vmsa_frames: Vec<u64>,
}

impl NativeMonitor {
    /// Creates the native monitor with frames reserved for VMSAs.
    pub fn new(vmsa_frames: Vec<u64>) -> Self {
        NativeMonitor { vmsa_frames }
    }
}

impl MonitorChannel for NativeMonitor {
    fn request(
        &mut self,
        hv: &mut Hypervisor,
        vcpu_id: u32,
        req: MonRequest,
    ) -> Result<MonResponse, OsError> {
        match req {
            MonRequest::Pvalidate { gfn, validate } => {
                hv.machine.pvalidate(Vmpl::Vmpl0, gfn, validate)?;
                Ok(MonResponse::Ok)
            }
            MonRequest::CreateVcpu { vcpu_id: new_id, rip, rsp, cr3 } => {
                let gfn = self.vmsa_frames.pop().ok_or(OsError::OutOfFrames)?;
                hv.machine.vmsa_create(Vmpl::Vmpl0, gfn, new_id, Vmpl::Vmpl0, Cpl::Cpl0)?;
                {
                    let vmsa = hv.machine.vmsa_mut(gfn).expect("just created");
                    vmsa.regs.rip = rip;
                    vmsa.regs.rsp = rsp;
                    vmsa.regs.cr3 = cr3;
                }
                hv.register_domain_vmsa(new_id, Vmpl::Vmpl0, gfn);
                let _ = vcpu_id;
                Ok(MonResponse::Value(gfn))
            }
            // A native CVM has no protected services.
            _ => Err(Refusal::NoService.into()),
        }
    }

    fn kernel_vmpl(&self) -> Vmpl {
        Vmpl::Vmpl0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use veil_snp::machine::{Machine, MachineConfig};

    fn hv() -> Hypervisor {
        let machine = Machine::new(MachineConfig { frames: 64, ..MachineConfig::default() });
        let mut hv = Hypervisor::new(machine);
        hv.launch(&[(1, b"kernel".to_vec())], 2).unwrap();
        hv
    }

    #[test]
    fn native_pvalidate_executes_directly() {
        let mut hv = hv();
        hv.machine.rmp_assign(10).unwrap();
        let mut gate = NativeMonitor::new(vec![]);
        gate.request(&mut hv, 0, MonRequest::Pvalidate { gfn: 10, validate: true }).unwrap();
        assert!(hv.machine.write(Vmpl::Vmpl0, Machine::gpa(10), b"x").is_ok());
    }

    #[test]
    fn native_create_vcpu() {
        let mut hv = hv();
        hv.machine.rmp_assign(11).unwrap();
        hv.machine.pvalidate(Vmpl::Vmpl0, 11, true).unwrap();
        let mut gate = NativeMonitor::new(vec![11]);
        let resp = gate
            .request(&mut hv, 0, MonRequest::CreateVcpu { vcpu_id: 1, rip: 5, rsp: 6, cr3: 7 })
            .unwrap();
        assert_eq!(resp, MonResponse::Value(11));
        assert_eq!(hv.machine.vmsa(11).unwrap().regs.rip, 5);
        assert_eq!(hv.vcpu(1).unwrap().domain_vmsas.get(&Vmpl::Vmpl0), Some(&11));
    }

    #[test]
    fn native_refuses_protected_services() {
        let mut hv = hv();
        let mut gate = NativeMonitor::new(vec![]);
        let err = gate.request(&mut hv, 0, MonRequest::LogAppend { record: vec![1] });
        assert_eq!(err, Err(OsError::Refused(Refusal::NoService)));
        // Chain attestation is a protected service too: no Veil, no report.
        let err = gate.request(
            &mut hv,
            0,
            MonRequest::AttestReport { nonce: [0; 32], report_data: [0; 64] },
        );
        assert_eq!(err, Err(OsError::Refused(Refusal::NoService)));
    }

    #[test]
    fn wire_len_scales_with_payload() {
        let small = MonRequest::LogAppend { record: vec![0; 10] };
        let big = MonRequest::LogAppend { record: vec![0; 100] };
        assert!(big.wire_len() > small.wire_len());
        assert!(MonRequest::Pvalidate { gfn: 0, validate: true }.wire_len() > 0);
    }
}
