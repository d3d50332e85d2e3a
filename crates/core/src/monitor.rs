//! VeilMon — the security monitor occupying `Dom_MON` (§5.1–§5.3).

use crate::domain::Domain;
use crate::layout::Layout;
use std::collections::BTreeSet;
use veil_crypto::{DhKeyPair, DhPublic, Drbg};
use veil_hv::Hypervisor;
use veil_os::error::OsError;
use veil_snp::attest::AttestationReport;
use veil_snp::cost::CostCategory;
use veil_snp::machine::Machine;
use veil_snp::perms::{Vmpl, VmplPerms};
use veil_trace::Event;

/// Cycle statistics of the one-time boot flow, for the §9.1 boot bench.
#[derive(Debug, Clone, Copy, Default)]
pub struct BootStats {
    /// Pages accepted + validated.
    pub pages_validated: u64,
    /// `RMPADJUST` executions during domain protection.
    pub rmpadjusts: u64,
    /// Replica VMSAs created.
    pub vmsas_created: u64,
    /// Total boot cycles attributed to Veil initialization.
    pub cycles: u64,
}

/// VeilMon state.
#[derive(Debug)]
pub struct Monitor {
    /// The memory map the monitor established.
    pub layout: Layout,
    /// Number of VCPUs replicated across domains.
    pub vcpus: u32,
    mon_free: Vec<u64>,
    ser_free: Vec<u64>,
    /// Frames the untrusted OS must never name in a request (§8.1:
    /// "VeilMon keeps track of all protected memory regions at runtime").
    protected: BTreeSet<u64>,
    /// Boot statistics.
    pub boot_stats: BootStats,
    drbg: Drbg,
    dh: Option<DhKeyPair>,
    /// Established secure-channel key with the remote user.
    channel_key: Option<[u8; 32]>,
}

impl Monitor {
    /// Runs VeilMon's boot-time initialization at `Dom_MON` (§5.1):
    ///
    /// 1. accepts + `PVALIDATE`s every private frame the launch did not
    ///    already cover;
    /// 2. executes `RMPADJUST` to grant each region exactly the
    ///    permissions its domain needs (kernel memory becomes VMPL-3
    ///    accessible, service memory VMPL-1, monitor memory stays
    ///    VMPL-0-only) — the dominant boot cost the paper measures;
    /// 3. replicates every VCPU into `Dom_SER` and `Dom_UNT` instances
    ///    (§5.2) and announces them to the hypervisor.
    ///
    /// # Errors
    ///
    /// Propagates machine faults (double validation, RMP errors) — any of
    /// these at boot is fatal to the CVM.
    pub fn init(hv: &mut Hypervisor, layout: Layout, vcpus: u32) -> Result<Monitor, OsError> {
        let mut stats = BootStats::default();
        let start = hv.machine.cycles().total();

        // 1. Accept + validate all private memory.
        for gfn in layout.private_frames() {
            if hv.machine.rmp().entry(gfn).map(|e| e.state())
                == Some(veil_snp::rmp::PageState::Shared)
            {
                hv.machine.rmp_assign(gfn)?;
                hv.machine.pvalidate(Vmpl::Vmpl0, gfn, true)?;
                stats.pages_validated += 1;
            }
        }

        // 2. Domain protection. Grants follow least privilege:
        //    kernel-owned regions -> VMPL-3 (and implicitly 1..2 stay out),
        //    service regions -> VMPL-1, monitor regions -> nobody below 0.
        let grant = |hv: &mut Hypervisor,
                     stats: &mut BootStats,
                     range: std::ops::Range<u64>,
                     vmpl: Vmpl,
                     perms: VmplPerms|
         -> Result<(), OsError> {
            for gfn in range {
                hv.machine.rmpadjust(Vmpl::Vmpl0, gfn, vmpl, perms)?;
                stats.rmpadjusts += 1;
            }
            Ok(())
        };
        // Services (Dom_SER) read their own image and own their pool/log.
        grant(
            hv,
            &mut stats,
            layout.ser_image.clone(),
            Vmpl::Vmpl1,
            VmplPerms::rx_super().union(VmplPerms::WRITE),
        )?;
        grant(hv, &mut stats, layout.ser_pool.clone(), Vmpl::Vmpl1, VmplPerms::all())?;
        grant(hv, &mut stats, layout.log_storage.clone(), Vmpl::Vmpl1, VmplPerms::rw())?;
        // IDCBs: kernel memory — both VMPL-1 (read requests) and VMPL-3.
        grant(hv, &mut stats, layout.idcb.clone(), Vmpl::Vmpl1, VmplPerms::rw())?;
        grant(hv, &mut stats, layout.idcb.clone(), Vmpl::Vmpl3, VmplPerms::rw())?;
        // Gate rings: same placement and access rule as the IDCBs.
        grant(hv, &mut stats, layout.gate_ring.clone(), Vmpl::Vmpl1, VmplPerms::rw())?;
        grant(hv, &mut stats, layout.gate_ring.clone(), Vmpl::Vmpl3, VmplPerms::rw())?;
        // Kernel regions: fully VMPL-3 accessible (W⊕X comes later via
        // KCI). Dom_SER is also granted access — protected services must
        // read staged requests from and install results into kernel
        // memory (module text, audit payloads), mirroring how the paper's
        // services operate on OS-provided buffers after sanitization.
        grant(hv, &mut stats, layout.kernel_text.clone(), Vmpl::Vmpl3, VmplPerms::all())?;
        grant(hv, &mut stats, layout.kernel_data.clone(), Vmpl::Vmpl3, VmplPerms::all())?;
        grant(hv, &mut stats, layout.kernel_pool.clone(), Vmpl::Vmpl3, VmplPerms::all())?;
        grant(hv, &mut stats, layout.kernel_text.clone(), Vmpl::Vmpl1, VmplPerms::all())?;
        grant(hv, &mut stats, layout.kernel_data.clone(), Vmpl::Vmpl1, VmplPerms::all())?;
        grant(hv, &mut stats, layout.kernel_pool.clone(), Vmpl::Vmpl1, VmplPerms::all())?;
        // Dom_ENC gets data access (never execute) to application memory:
        // enclaves copy syscall arguments to/from shared app buffers
        // (§6.2). Confinement to *their own* process comes from the
        // VeilS-ENC-controlled page tables, which enclaves cannot alter
        // (no supervisor execution at Dom_ENC).
        grant(hv, &mut stats, layout.kernel_pool.clone(), Vmpl::Vmpl2, VmplPerms::rw())?;
        // Monitor image/pool: nothing to grant — fresh pages are already
        // VMPL-0-only, which *is* the protection.

        let mut monitor = Monitor {
            mon_free: layout.mon_pool.clone().rev().collect(),
            ser_free: layout.ser_pool.clone().rev().collect(),
            protected: BTreeSet::new(),
            layout,
            vcpus,
            boot_stats: BootStats::default(),
            drbg: Drbg::from_seed(b"veilmon-boot-entropy"),
            dh: None,
            channel_key: None,
        };
        for gfn in monitor.layout.mon_image.clone() {
            monitor.protected.insert(gfn);
        }
        for gfn in monitor.layout.ser_image.clone() {
            monitor.protected.insert(gfn);
        }
        for gfn in monitor.layout.mon_pool.clone() {
            monitor.protected.insert(gfn);
        }
        for gfn in monitor.layout.ser_pool.clone() {
            monitor.protected.insert(gfn);
        }
        for gfn in monitor.layout.log_storage.clone() {
            monitor.protected.insert(gfn);
        }
        monitor.protected.insert(monitor.layout.boot_vmsa);

        // 3. Replicated VCPUs (§5.2): every VCPU gets one instance per
        //    standing domain. Dom_ENC instances are created per enclave.
        for vcpu in 0..vcpus {
            if vcpu != 0 {
                // Additional VCPUs also need a Dom_MON instance (the boot
                // VCPU already has one from launch).
                let gfn = monitor.create_domain_vmsa(hv, vcpu, Domain::Mon)?;
                hv.register_domain_vmsa(vcpu, Vmpl::Vmpl0, gfn);
                stats.vmsas_created += 1;
            }
            for domain in [Domain::Ser, Domain::Unt] {
                let gfn = monitor.create_domain_vmsa(hv, vcpu, domain)?;
                hv.register_domain_vmsa(vcpu, domain.vmpl(), gfn);
                stats.vmsas_created += 1;
                // Announcing the VMSA is a hypercall round trip.
                let announce = hv.machine.cost().domain_switch();
                hv.machine.charge(CostCategory::Other, announce);
            }
        }

        stats.cycles = hv.machine.cycles().total() - start;
        monitor.boot_stats = stats;
        Ok(monitor)
    }

    // ---- pools -----------------------------------------------------------

    /// Allocates one frame from VeilMon's private pool.
    pub fn alloc_mon(&mut self) -> Result<u64, OsError> {
        self.mon_free.pop().ok_or(OsError::OutOfFrames)
    }

    /// Allocates one frame from the services pool.
    pub fn alloc_ser(&mut self) -> Result<u64, OsError> {
        self.ser_free.pop().ok_or(OsError::OutOfFrames)
    }

    /// Returns a frame to the monitor pool.
    pub fn free_mon(&mut self, gfn: u64) {
        debug_assert!(self.layout.mon_pool.contains(&gfn));
        self.mon_free.push(gfn);
    }

    /// Remaining monitor-pool frames.
    pub fn mon_available(&self) -> usize {
        self.mon_free.len()
    }

    // ---- protected-region tracking (§8.1) ----------------------------------

    /// Marks a frame protected (e.g. enclave memory, cloned page tables).
    pub fn protect_frame(&mut self, gfn: u64) {
        self.protected.insert(gfn);
    }

    /// Removes protection bookkeeping (frame handed back to the OS).
    pub fn unprotect_frame(&mut self, gfn: u64) {
        self.protected.remove(&gfn);
    }

    /// Whether a frame is in a protected region.
    pub fn is_protected(&self, gfn: u64) -> bool {
        self.protected.contains(&gfn)
    }

    /// Sanitizes untrusted frame references from an OS request: every
    /// frame must exist and must not point into protected regions
    /// ("before referencing an untrusted memory address pointer, VeilMon
    /// checks that it does not point to a protected region", §8.1).
    pub fn sanitize_gfns(&self, machine: &Machine, gfns: &[u64]) -> Result<(), OsError> {
        for &gfn in gfns {
            if gfn >= machine.frames() {
                return Err(OsError::MonitorRefused(format!("gfn {gfn:#x} out of range")));
            }
            if self.is_protected(gfn) {
                return Err(OsError::MonitorRefused(format!(
                    "gfn {gfn:#x} points into a protected region"
                )));
            }
        }
        Ok(())
    }

    // ---- domain management (§5.2) -------------------------------------------

    /// Creates a VMSA for (`vcpu`, `domain`) from the monitor pool, with
    /// the domain's entry point installed.
    pub fn create_domain_vmsa(
        &mut self,
        hv: &mut Hypervisor,
        vcpu: u32,
        domain: Domain,
    ) -> Result<u64, OsError> {
        let gfn = self.alloc_mon()?;
        hv.machine.vmsa_create(Vmpl::Vmpl0, gfn, vcpu, domain.vmpl(), domain.cpl())?;
        {
            let vmsa = hv.machine.vmsa_mut(gfn).expect("just created");
            vmsa.regs.rip = domain.entry_rip();
            vmsa.regs.rsp = 0;
            vmsa.regs.cr3 = 0;
        }
        self.protected.insert(gfn);
        Ok(gfn)
    }

    /// Destroys a domain VMSA and returns the frame to the pool.
    pub fn destroy_domain_vmsa(&mut self, hv: &mut Hypervisor, gfn: u64) -> Result<(), OsError> {
        hv.machine.vmsa_destroy(Vmpl::Vmpl0, gfn)?;
        self.protected.remove(&gfn);
        self.free_mon(gfn);
        Ok(())
    }

    // ---- delegation (§5.3) ----------------------------------------------------

    /// Page-state-change delegation: validates/invalidates `gfn` on the
    /// kernel's behalf, refusing trusted regions ("checks that these
    /// calls are not made for trusted memory regions").
    pub fn pvalidate_delegate(
        &mut self,
        hv: &mut Hypervisor,
        gfn: u64,
        validate: bool,
    ) -> Result<(), OsError> {
        self.sanitize_gfns(&hv.machine, &[gfn])?;
        hv.machine.pvalidate(Vmpl::Vmpl0, gfn, validate)?;
        if validate {
            // Freshly accepted kernel memory: grant VMPL-3.
            hv.machine.rmpadjust(Vmpl::Vmpl0, gfn, Vmpl::Vmpl3, VmplPerms::all())?;
        }
        Ok(())
    }

    /// VCPU-boot delegation: creates the `Dom_UNT` VMSA with the state the
    /// kernel prepared, plus the trusted-domain replicas for the new VCPU
    /// (§5.3: "for every new hotplugged VCPU, Veil also creates replicas").
    pub fn create_vcpu_delegate(
        &mut self,
        hv: &mut Hypervisor,
        new_vcpu_id: u32,
        rip: u64,
        rsp: u64,
        cr3: u64,
    ) -> Result<u64, OsError> {
        let unt_gfn = self.create_domain_vmsa(hv, new_vcpu_id, Domain::Unt)?;
        {
            let vmsa = hv.machine.vmsa_mut(unt_gfn).expect("created");
            vmsa.regs.rip = rip;
            vmsa.regs.rsp = rsp;
            vmsa.regs.cr3 = cr3;
        }
        hv.register_domain_vmsa(new_vcpu_id, Vmpl::Vmpl3, unt_gfn);
        for domain in [Domain::Mon, Domain::Ser] {
            let gfn = self.create_domain_vmsa(hv, new_vcpu_id, domain)?;
            hv.register_domain_vmsa(new_vcpu_id, domain.vmpl(), gfn);
        }
        self.vcpus = self.vcpus.max(new_vcpu_id + 1);
        Ok(unt_gfn)
    }

    // ---- attestation + secure channel (§5.1) -------------------------------------

    /// Requests an attestation report from `Dom_MON` carrying a fresh DH
    /// public value, beginning secure-channel establishment with the
    /// remote user.
    pub fn begin_channel(&mut self, hv: &mut Hypervisor) -> Option<(AttestationReport, DhPublic)> {
        let seed = self.drbg.next_bytes32();
        let dh = DhKeyPair::from_seed(&seed);
        let mut report_data = [0u8; 64];
        report_data[..32].copy_from_slice(&dh.public.0.to_be_bytes());
        let report = hv.machine.attest(Vmpl::Vmpl0, report_data)?;
        let public = dh.public;
        self.dh = Some(dh);
        hv.machine.trace_event(Event::ChannelHandshake { step: 0 });
        Some((report, public))
    }

    /// Completes the channel with the remote user's public value.
    pub fn complete_channel(
        &mut self,
        hv: &mut Hypervisor,
        peer: &DhPublic,
    ) -> Result<(), OsError> {
        let dh =
            self.dh.as_ref().ok_or_else(|| OsError::Config("begin_channel not called".into()))?;
        self.channel_key = Some(dh.agree(peer).0);
        hv.machine.trace_event(Event::ChannelHandshake { step: 1 });
        Ok(())
    }

    /// The established channel key (None before completion).
    pub fn channel_key(&self) -> Option<[u8; 32]> {
        self.channel_key
    }

    /// Fresh random bytes from the monitor's DRBG (service key material).
    pub fn random32(&mut self) -> [u8; 32] {
        self.drbg.next_bytes32()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::LayoutConfig;
    use veil_snp::machine::{Machine, MachineConfig};
    use veil_snp::mem::gpa_of;

    fn boot_monitor(frames: u64, vcpus: u32) -> (Hypervisor, Monitor) {
        let machine =
            Machine::new(MachineConfig { frames: frames as usize, ..MachineConfig::default() });
        let mut hv = Hypervisor::new(machine);
        let layout = Layout::compute(&LayoutConfig { frames, vcpus, ..LayoutConfig::default() });
        let image: Vec<(u64, Vec<u8>)> = layout
            .mon_image
            .clone()
            .chain(layout.ser_image.clone())
            .map(|gfn| (gfn, format!("image page {gfn}").into_bytes()))
            .collect();
        hv.launch(&image, layout.boot_vmsa).unwrap();
        let monitor = Monitor::init(&mut hv, layout, vcpus).unwrap();
        (hv, monitor)
    }

    #[test]
    fn boot_validates_everything_private() {
        let (hv, monitor) = boot_monitor(2048, 2);
        // Shared region untouched.
        for gfn in monitor.layout.shared.clone() {
            assert!(hv.machine.rmp().hypervisor_accessible(gfn));
        }
        // Kernel pool accessible at VMPL-3.
        let g = monitor.layout.kernel_pool.start;
        assert!(hv.machine.read(Vmpl::Vmpl3, gpa_of(g), 8).is_ok());
        // Stats counted the work.
        assert!(monitor.boot_stats.pages_validated > 1500);
        assert!(monitor.boot_stats.rmpadjusts > 1500);
        assert!(monitor.boot_stats.cycles > 0);
    }

    #[test]
    fn monitor_memory_sealed_from_lower_domains() {
        let (mut hv, monitor) = boot_monitor(2048, 1);
        let mon_gpa = gpa_of(monitor.layout.mon_image.start);
        for vmpl in [Vmpl::Vmpl1, Vmpl::Vmpl2, Vmpl::Vmpl3] {
            assert!(hv.machine.read(vmpl, mon_gpa, 8).is_err(), "{vmpl} read");
            assert!(hv.machine.write(vmpl, mon_gpa, b"x").is_err(), "{vmpl} write");
        }
        // Dom_SER memory: VMPL-1 yes, VMPL-3 no.
        let ser_gpa = gpa_of(monitor.layout.ser_pool.start);
        assert!(hv.machine.write(Vmpl::Vmpl1, ser_gpa, b"svc").is_ok());
        assert!(hv.machine.write(Vmpl::Vmpl3, ser_gpa, b"atk").is_err());
    }

    #[test]
    fn vcpus_replicated_across_domains() {
        let (hv, _monitor) = boot_monitor(2048, 3);
        for vcpu in 0..3 {
            let svm = hv.vcpu(vcpu).expect("vcpu exists");
            assert!(svm.domain_vmsas.contains_key(&Vmpl::Vmpl0), "vcpu {vcpu} MON");
            assert!(svm.domain_vmsas.contains_key(&Vmpl::Vmpl1), "vcpu {vcpu} SER");
            assert!(svm.domain_vmsas.contains_key(&Vmpl::Vmpl3), "vcpu {vcpu} UNT");
        }
    }

    #[test]
    fn sanitizer_rejects_protected_and_oob_frames() {
        let (hv, monitor) = boot_monitor(2048, 1);
        let kernel_frame = monitor.layout.kernel_pool.start;
        assert!(monitor.sanitize_gfns(&hv.machine, &[kernel_frame]).is_ok());
        let mon_frame = monitor.layout.mon_pool.start;
        assert!(monitor.sanitize_gfns(&hv.machine, &[mon_frame]).is_err());
        let log_frame = monitor.layout.log_storage.start;
        assert!(monitor.sanitize_gfns(&hv.machine, &[log_frame]).is_err());
        assert!(monitor.sanitize_gfns(&hv.machine, &[1 << 40]).is_err());
        // Mixed lists fail as a whole.
        assert!(monitor.sanitize_gfns(&hv.machine, &[kernel_frame, mon_frame]).is_err());
    }

    #[test]
    fn pvalidate_delegation_refuses_trusted_regions() {
        let (mut hv, mut monitor) = boot_monitor(2048, 1);
        let mon_frame = monitor.layout.mon_pool.start;
        assert!(monitor.pvalidate_delegate(&mut hv, mon_frame, false).is_err());
        // A hotplug page works end to end.
        let fresh = monitor.layout.shared.start + 8;
        hv.machine.rmp_assign(fresh).unwrap();
        monitor.pvalidate_delegate(&mut hv, fresh, true).unwrap();
        assert!(hv.machine.write(Vmpl::Vmpl3, gpa_of(fresh), b"kernel page").is_ok());
    }

    #[test]
    fn hotplug_creates_replicas() {
        let (mut hv, mut monitor) = boot_monitor(2048, 1);
        monitor.create_vcpu_delegate(&mut hv, 1, 0x1000, 0x2000, 0).unwrap();
        let svm = hv.vcpu(1).expect("hotplugged");
        assert_eq!(svm.domain_vmsas.len(), 3, "UNT + MON + SER replicas");
        assert_eq!(monitor.vcpus, 2);
        // The UNT VMSA carries the kernel-prepared state.
        let unt_gfn = svm.domain_vmsas[&Vmpl::Vmpl3];
        assert_eq!(hv.machine.vmsa(unt_gfn).unwrap().regs.rip, 0x1000);
    }

    #[test]
    fn secure_channel_end_to_end() {
        let (mut hv, mut monitor) = boot_monitor(2048, 1);
        let (report, mon_pub) = monitor.begin_channel(&mut hv).unwrap();
        // Remote side: verify report, check VMPL-0 origin, derive key.
        assert!(report.verify(&hv.machine.device_verification_key()));
        assert_eq!(report.vmpl, Vmpl::Vmpl0);
        let user = DhKeyPair::from_seed(&[9; 32]);
        let user_secret = user.agree(&mon_pub);
        monitor.complete_channel(&mut hv, &user.public).unwrap();
        assert_eq!(monitor.channel_key(), Some(user_secret.0));
    }

    #[test]
    fn vmsa_pool_roundtrip() {
        let (mut hv, mut monitor) = boot_monitor(2048, 1);
        let avail = monitor.mon_available();
        let gfn = monitor.create_domain_vmsa(&mut hv, 7, Domain::Enc).unwrap();
        assert!(monitor.is_protected(gfn));
        assert_eq!(hv.machine.vmsa(gfn).unwrap().regs.rip, Domain::Enc.entry_rip());
        monitor.destroy_domain_vmsa(&mut hv, gfn).unwrap();
        assert_eq!(monitor.mon_available(), avail);
    }
}
