//! VeilS-KCI: kernel code integrity (§6.1).
//!
//! Two mechanisms:
//!
//! 1. **Kernel memory W⊕X** — at boot, every kernel text page loses write
//!    permission and every kernel data page loses supervisor-execute
//!    permission *in the RMP*, so even a kernel tricked into clearing its
//!    own NX bits cannot execute injected code (the page-table attack of
//!    §8.3 bounces off the VMPL layer).
//! 2. **TOCTOU-safe module loading** — the service copies the staged
//!    image out of untrusted memory *first*, then verifies the vendor
//!    signature, relocates against the protected symbol table, installs
//!    the text, and write-protects it with `RMPADJUST`.

use std::collections::BTreeMap;
use veil_core::monitor::Monitor;
use veil_core::service::KernelHandoff;
use veil_hv::Hypervisor;
use veil_os::error::{OsError, Refusal};
use veil_os::module::ModuleImage;
use veil_snp::cost::CostCategory;
use veil_snp::mem::{gpa_of, PAGE_SIZE};
use veil_snp::perms::{Vmpl, VmplPerms};

/// VeilS-KCI state.
#[derive(Debug, Default)]
pub struct VeilSKci {
    vendor_key: [u8; 32],
    /// The protected symbol table used for relocation (§6.1: "relocating
    /// symbols using a protected symbol table").
    symbols: BTreeMap<String, u64>,
    /// Modules currently installed, keyed by first text frame.
    installed: BTreeMap<u64, Vec<u64>>,
    /// Statistics for CS1.
    pub loads: u64,
    /// See [`VeilSKci::loads`].
    pub unloads: u64,
    /// Signature rejections (attack attempts).
    pub rejected: u64,
}

impl VeilSKci {
    /// Boot-time W⊕X pass over kernel memory.
    ///
    /// # Errors
    ///
    /// RMP failures abort boot.
    pub fn on_boot(
        &mut self,
        _monitor: &mut Monitor,
        hv: &mut Hypervisor,
        handoff: &KernelHandoff,
    ) -> Result<(), OsError> {
        self.vendor_key = handoff.vendor_key;
        // The same exported symbols the kernel publishes; kept privately
        // so a compromised kernel cannot redirect relocations.
        for (i, sym) in
            ["printk", "kmalloc", "kfree", "register_chrdev", "audit_log_end"].iter().enumerate()
        {
            self.symbols.insert((*sym).to_string(), 0xffff_8000_0000 + (i as u64) * 0x40);
        }
        // Text: read + supervisor-execute, no write.
        for gfn in &handoff.kernel_text_gfns {
            hv.machine.rmpadjust(Vmpl::Vmpl0, *gfn, Vmpl::Vmpl3, VmplPerms::rx_super())?;
        }
        // Data: read/write/user-exec, no supervisor-exec.
        for gfn in &handoff.kernel_data_gfns {
            hv.machine.rmpadjust(
                Vmpl::Vmpl0,
                *gfn,
                Vmpl::Vmpl3,
                VmplPerms::rw().union(VmplPerms::USER_EXEC),
            )?;
        }
        Ok(())
    }

    /// Verifies and installs a staged module (the `load_module` hook).
    ///
    /// # Errors
    ///
    /// * a malformed image or a bad signature → [`Refusal::MalformedModule`]
    ///   or [`Refusal::BadModuleSignature`], counted in [`VeilSKci::rejected`];
    /// * unknown relocation symbols → [`Refusal::UnknownSymbol`];
    /// * RMP errors propagate.
    pub fn module_load(
        &mut self,
        monitor: &mut Monitor,
        hv: &mut Hypervisor,
        staging_gfns: &[u64],
        image_len: usize,
        dest_gfns: &[u64],
    ) -> Result<(), OsError> {
        if image_len > staging_gfns.len() * PAGE_SIZE {
            return Err(Refusal::ModuleFramesShort.into());
        }
        // 1. Copy out of untrusted memory before any checks (TOCTOU).
        let mut bytes = vec![0u8; image_len];
        for (i, gfn) in staging_gfns.iter().enumerate() {
            let off = i * PAGE_SIZE;
            if off >= image_len {
                break;
            }
            let take = (image_len - off).min(PAGE_SIZE);
            hv.machine.read_into(Vmpl::Vmpl1, gpa_of(*gfn), &mut bytes[off..off + take])?;
        }
        let copy_cost = hv.machine.cost().copy(image_len);
        hv.machine.charge(CostCategory::Other, copy_cost);

        // 2. Parse + verify on the private copy.
        let sha_cost = hv.machine.cost().sha256(image_len);
        hv.machine.charge(CostCategory::Other, sha_cost);
        let image = ModuleImage::deserialize(&bytes).inspect_err(|_| self.rejected += 1)?;
        if !image.verify(&self.vendor_key) {
            self.rejected += 1;
            return Err(Refusal::BadModuleSignature.into());
        }
        let ModuleImage { mut text, relocs, .. } = image;
        if text.len().div_ceil(PAGE_SIZE).max(1) > dest_gfns.len() {
            return Err(Refusal::ModuleFramesShort.into());
        }

        // 3. Relocate the verified private copy in place against the
        //    *protected* symbol table.
        let symbols = &self.symbols;
        ModuleImage::relocate(&mut text, &relocs, &|s| symbols.get(s).copied())?;

        // 4. Install into kernel memory and write-protect each page.
        for (i, chunk) in text.chunks(PAGE_SIZE).enumerate() {
            hv.machine.write(Vmpl::Vmpl1, gpa_of(dest_gfns[i]), chunk)?;
        }
        let install_cost = hv.machine.cost().copy(text.len());
        hv.machine.charge(CostCategory::Other, install_cost);
        for gfn in dest_gfns {
            hv.machine.rmpadjust(Vmpl::Vmpl0, *gfn, Vmpl::Vmpl3, VmplPerms::rx_super())?;
        }
        let _ = monitor;
        self.installed.insert(dest_gfns[0], dest_gfns.to_vec());
        self.loads += 1;
        Ok(())
    }

    /// Lifts module-text protection so the kernel can reuse the frames
    /// (the `free_module` hook).
    ///
    /// # Errors
    ///
    /// Refuses frame lists that do not correspond to an installed module
    /// (the kernel cannot use unload to strip W⊕X from arbitrary pages).
    pub fn module_unload(
        &mut self,
        _monitor: &mut Monitor,
        hv: &mut Hypervisor,
        text_gfns: &[u64],
    ) -> Result<(), OsError> {
        match text_gfns.first().and_then(|key| self.installed.get(key)) {
            Some(known) if known == text_gfns => {}
            _ => return Err(Refusal::ModuleNotLoaded.into()),
        }
        for gfn in text_gfns {
            // Scrub module text before the kernel reuses the page, then
            // restore the data-page policy (rw, no supervisor exec).
            hv.machine.write(Vmpl::Vmpl1, gpa_of(*gfn), &[0u8; PAGE_SIZE])?;
            hv.machine.rmpadjust(
                Vmpl::Vmpl0,
                *gfn,
                Vmpl::Vmpl3,
                VmplPerms::rw().union(VmplPerms::USER_EXEC),
            )?;
        }
        self.installed.remove(&text_gfns[0]);
        self.unloads += 1;
        Ok(())
    }

    /// Number of currently installed KCI-protected modules.
    pub fn installed_count(&self) -> usize {
        self.installed.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CvmBuilder;
    use veil_core::cvm::VENDOR_KEY;
    use veil_os::module::ModuleImage;

    fn cvm() -> crate::Cvm {
        CvmBuilder::new().frames(2048).build().unwrap()
    }

    #[test]
    fn boot_wx_blocks_text_writes_and_data_exec() {
        let cvm = cvm();
        let text = cvm.gate.monitor.layout.kernel_text.start;
        let data = cvm.gate.monitor.layout.kernel_data.start;
        let rmp = cvm.hv.machine.rmp();
        let text_perms = rmp.entry(text).unwrap().perms(Vmpl::Vmpl3);
        assert!(!text_perms.contains(VmplPerms::WRITE));
        assert!(text_perms.contains(VmplPerms::SUPER_EXEC));
        let data_perms = rmp.entry(data).unwrap().perms(Vmpl::Vmpl3);
        assert!(data_perms.contains(VmplPerms::WRITE));
        assert!(!data_perms.contains(VmplPerms::SUPER_EXEC));
    }

    #[test]
    fn tampered_module_rejected_and_counted() {
        let mut cvm = cvm();
        let mut image = ModuleImage::build_signed("rootkit", 4096, &VENDOR_KEY);
        image.text[7] ^= 0x41;
        let (kernel, mut ctx) = cvm.kctx();
        let err = kernel.load_module(&mut ctx, &image);
        assert_eq!(err, Err(OsError::Refused(Refusal::BadModuleSignature)));
        assert_eq!(cvm.gate.services.kci.rejected, 1);
        assert_eq!(cvm.gate.services.kci.loads, 0);
    }

    #[test]
    fn unload_restores_writability_and_scrubs() {
        let mut cvm = cvm();
        let image = ModuleImage::build_signed("driver", 4096, &VENDOR_KEY);
        {
            let (kernel, mut ctx) = cvm.kctx();
            kernel.load_module(&mut ctx, &image).unwrap();
        }
        let gfns = cvm.kernel.modules["driver"].text_gfns.clone();
        let gpa = gpa_of(gfns[0]);
        assert!(cvm.hv.machine.write(Vmpl::Vmpl3, gpa, b"nope").is_err());
        {
            let (kernel, mut ctx) = cvm.kctx();
            kernel.unload_module(&mut ctx, "driver").unwrap();
        }
        assert!(cvm.hv.machine.write(Vmpl::Vmpl3, gpa, b"mine again").is_ok());
        assert_eq!(cvm.gate.services.kci.installed_count(), 0);
    }

    /// Loading a name that is already loaded is refused before anything
    /// is staged: no frame is taken and VeilS-KCI installs no second,
    /// never-unloadable copy.
    #[test]
    fn duplicate_load_refused_without_leaking() {
        let mut cvm = cvm();
        let image = ModuleImage::build_signed("driver", 4096, &VENDOR_KEY);
        let initial = cvm.kernel.frames.available();
        {
            let (kernel, mut ctx) = cvm.kctx();
            kernel.load_module(&mut ctx, &image).unwrap();
        }
        let loaded = cvm.kernel.frames.available();
        {
            let (kernel, mut ctx) = cvm.kctx();
            let err = kernel.load_module(&mut ctx, &image).unwrap_err();
            assert_eq!(err, OsError::Refused(Refusal::ModuleAlreadyLoaded));
        }
        assert_eq!(cvm.kernel.frames.available(), loaded);
        assert_eq!(cvm.gate.services.kci.installed_count(), 1);
        assert_eq!(cvm.gate.services.kci.loads, 1);
        {
            let (kernel, mut ctx) = cvm.kctx();
            kernel.unload_module(&mut ctx, "driver").unwrap();
        }
        assert_eq!(cvm.gate.services.kci.installed_count(), 0);
        assert_eq!(cvm.kernel.frames.available(), initial);
    }

    /// A refused unload leaves the module loaded, so an honest retry can
    /// finish it: the kernel never forgets a module VeilS-KCI still
    /// write-protects, and its frames come back.
    #[test]
    fn refused_unload_keeps_module_for_retry() {
        let mut cvm = cvm();
        let initial = cvm.kernel.frames.available();
        let image = ModuleImage::build_signed("driver", 4096, &VENDOR_KEY);
        {
            let (kernel, mut ctx) = cvm.kctx();
            kernel.load_module(&mut ctx, &image).unwrap();
        }
        cvm.hv.policy.refuse_switches = true;
        {
            let (kernel, mut ctx) = cvm.kctx();
            let err = kernel.unload_module(&mut ctx, "driver").unwrap_err();
            assert_eq!(err, OsError::Refused(Refusal::HostRefused));
        }
        assert!(cvm.kernel.modules.contains_key("driver"));
        assert_eq!(cvm.gate.services.kci.installed_count(), 1);
        cvm.hv.policy.refuse_switches = false;
        {
            let (kernel, mut ctx) = cvm.kctx();
            kernel.unload_module(&mut ctx, "driver").unwrap();
        }
        assert_eq!(cvm.gate.services.kci.installed_count(), 0);
        assert_eq!(cvm.kernel.frames.available(), initial);
    }

    #[test]
    fn unload_of_arbitrary_frames_refused() {
        let mut cvm = cvm();
        // The OS tries to strip W^X from a page KCI never protected.
        let victim = cvm.gate.monitor.layout.kernel_pool.start + 5;
        let req = veil_os::monitor::MonRequest::KciModuleUnload { text_gfns: vec![victim] };
        let (_, ctx) = cvm.kctx();
        let err = ctx.gate.request(ctx.hv, 0, req);
        assert_eq!(err, Err(OsError::Refused(Refusal::ModuleNotLoaded)));
    }

    #[test]
    fn module_load_cost_matches_cs1_scale() {
        // Paper CS1: ~55k extra cycles for a 24 KiB (6-page) module,
        // measured as KCI load minus native load.
        let image = ModuleImage::build_signed("cs1_module", 6 * PAGE_SIZE - 512, &VENDOR_KEY);
        let measure = |kci: bool| {
            let mut cvm = CvmBuilder::new().frames(2048).kci(kci).build().unwrap();
            let snap = cvm.hv.machine.cycles().snapshot();
            let (kernel, mut ctx) = cvm.kctx();
            kernel.load_module(&mut ctx, &image).unwrap();
            cvm.hv.machine.cycles().since(&snap).total()
        };
        let native = measure(false);
        let kci = measure(true);
        let extra = kci - native;
        assert!(
            (35_000..90_000).contains(&extra),
            "KCI extra {extra} outside CS1 ballpark (native {native}, kci {kci})"
        );
        // And it is a small fraction of the full load, as CS1 reports
        // (+5.7%): the module-prep cost dominates.
        assert!(extra * 5 < native, "extra {extra} should be <20% of {native}");
    }
}
