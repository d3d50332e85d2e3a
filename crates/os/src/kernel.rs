//! The kernel proper: boot, processes, syscall service, modules, memory.
//!
//! The kernel is *untrusted* in the Veil threat model; it runs at the VMPL
//! its [`crate::monitor::MonitorChannel`] dictates (`VMPL-3` under Veil,
//! `VMPL-0` in the native baseline) and must delegate the architecturally
//! restricted operations (§5.3) through the channel.

use crate::audit::{AuditMode, AuditState};
use crate::error::{Errno, OsError, Refusal};
use crate::frames::FrameAllocator;
use crate::module::{LoadedModule, ModuleImage};
use crate::monitor::{MonRequest, MonitorChannel};
use crate::process::{FdEntry, MmapRegion, Pid, Process};
use crate::socket::SocketTable;
use crate::sys::{Fd, OpenFlags, Sys, SysStat, Whence};
use crate::syscall::Sysno;
use crate::vfs::Vfs;
use std::collections::BTreeMap;
use veil_hv::Hypervisor;
use veil_snp::cost::{CostCategory, CLOCK_HZ};
use veil_snp::ghcb::{Ghcb, GhcbExit};
use veil_snp::mem::{gpa_of, PAGE_SIZE};
use veil_snp::perms::{Cpl, Vmpl};
use veil_snp::pt::{AddressSpace, PteFlags};
use veil_trace::Event;

/// Everything a kernel operation needs besides the kernel itself.
pub struct KernelCtx<'a> {
    /// The (untrusted) hypervisor, which owns the machine.
    pub hv: &'a mut Hypervisor,
    /// Channel to VeilMon (or the native monitor).
    pub gate: &'a mut dyn MonitorChannel,
    /// VCPU issuing the operation.
    pub vcpu: u32,
}

impl KernelCtx<'_> {
    /// Charges the kernel for copying `bytes` to or from user space.
    fn charge_copy(&mut self, bytes: usize) {
        let copy = self.hv.machine.cost().copy(bytes);
        self.hv.machine.charge(CostCategory::KernelService, copy);
    }
}

/// Kernel construction parameters (what the boot layer hands over).
#[derive(Debug, Clone)]
pub struct KernelConfig {
    /// First frame of the kernel's general-purpose pool.
    pub pool_start: u64,
    /// One past the last pool frame.
    pub pool_end: u64,
    /// Frames left hypervisor-shared at launch, reserved for GHCBs:
    /// one per VCPU plus hotplug spares.
    pub ghcb_gfns: Vec<u64>,
    /// VCPUs to register GHCBs for at boot.
    pub vcpus: u32,
    /// Vendor key for module signature verification.
    pub vendor_key: [u8; 32],
    /// Frames holding the (simulated) kernel text, for KCI protection.
    pub kernel_text_gfns: Vec<u64>,
    /// Frames holding kernel data.
    pub kernel_data_gfns: Vec<u64>,
}

/// The kernel.
#[derive(Debug)]
pub struct Kernel {
    /// VMPL the kernel executes at.
    pub vmpl: Vmpl,
    /// Physical frame pool.
    pub frames: FrameAllocator,
    /// Filesystem.
    pub vfs: Vfs,
    /// Socket layer.
    pub sockets: SocketTable,
    procs: BTreeMap<Pid, Process>,
    next_pid: Pid,
    /// Audit framework state.
    pub audit: AuditState,
    /// Count of audit records that could not be persisted.
    pub audit_failures: u64,
    /// Kernel symbol table for module relocation.
    pub symbols: BTreeMap<String, u64>,
    /// Installed modules by name.
    pub modules: BTreeMap<String, LoadedModule>,
    /// Whether module operations route through VeilS-KCI.
    pub kci: bool,
    vendor_key: [u8; 32],
    console: Vec<u8>,
    /// Per-VCPU kernel GHCB frames.
    ghcbs: BTreeMap<u32, u64>,
    spare_ghcbs: Vec<u64>,
    /// Kernel text frames (W⊕X-protected by VeilS-KCI at boot).
    pub kernel_text_gfns: Vec<u64>,
    /// Kernel data frames.
    pub kernel_data_gfns: Vec<u64>,
    /// Frame sub-pool reserved for page tables.
    pt_free: Vec<u64>,
    /// User-mapped enclave GHCBs handed out so far (kernel-module state).
    pub enclave_ghcbs_used: u32,
}

impl Kernel {
    /// Boots the kernel: builds the initial filesystem tree, registers the
    /// boot VCPU's GHCB, and publishes the kernel symbol table.
    ///
    /// # Errors
    ///
    /// Fails when no GHCB frame was reserved.
    pub fn boot(ctx: &mut KernelCtx<'_>, config: KernelConfig) -> Result<Kernel, OsError> {
        if (config.ghcb_gfns.len() as u32) < config.vcpus.max(1) {
            return Err(Refusal::NoGhcb.into());
        }
        let (per_vcpu, spares) = config.ghcb_gfns.split_at(config.vcpus.max(1) as usize);
        let per_vcpu = per_vcpu.to_vec();
        let spare_ghcbs: Vec<u64> = spares.to_vec();
        let mut kernel = Kernel {
            vmpl: ctx.gate.kernel_vmpl(),
            frames: FrameAllocator::new(config.pool_start, config.pool_end),
            vfs: Vfs::new(),
            sockets: SocketTable::new(),
            procs: BTreeMap::new(),
            next_pid: 1,
            audit: AuditState::new(),
            audit_failures: 0,
            symbols: BTreeMap::new(),
            modules: BTreeMap::new(),
            kci: false,
            vendor_key: config.vendor_key,
            console: Vec::new(),
            ghcbs: BTreeMap::new(),
            spare_ghcbs,
            kernel_text_gfns: config.kernel_text_gfns,
            kernel_data_gfns: config.kernel_data_gfns,
            pt_free: Vec::new(),
            enclave_ghcbs_used: 0,
        };
        for (vcpu, gfn) in per_vcpu.iter().enumerate() {
            kernel.ghcbs.insert(vcpu as u32, *gfn);
            ctx.hv.machine.set_ghcb_msr(vcpu as u32, *gfn);
        }
        // Standard tree.
        for dir in ["/tmp", "/var", "/var/log", "/etc", "/www", "/data", "/dev"] {
            kernel.vfs.mkdir(dir, 0o755)?;
        }
        // Exported symbols modules relocate against.
        for (i, sym) in
            ["printk", "kmalloc", "kfree", "register_chrdev", "audit_log_end"].iter().enumerate()
        {
            kernel.symbols.insert((*sym).to_string(), 0xffff_8000_0000 + (i as u64) * 0x40);
        }
        Ok(kernel)
    }

    /// The kernel GHCB for a VCPU.
    pub fn ghcb_gfn(&self, vcpu: u32) -> Option<u64> {
        self.ghcbs.get(&vcpu).copied()
    }

    /// Console contents (stdout of all processes).
    pub fn console(&self) -> &[u8] {
        &self.console
    }

    /// Frames set aside for page tables and not yet used. They are free
    /// too, but not in [`Kernel::frames`].
    pub fn pt_pool_len(&self) -> usize {
        self.pt_free.len()
    }

    // ---- processes -------------------------------------------------------

    /// Creates a process.
    pub fn spawn(&mut self) -> Pid {
        let pid = self.next_pid;
        self.next_pid += 1;
        self.procs.insert(pid, Process::new(pid));
        pid
    }

    /// Immutable process lookup.
    pub fn process(&self, pid: Pid) -> Result<&Process, Errno> {
        self.procs.get(&pid).ok_or(Errno::ESRCH)
    }

    /// Mutable process lookup.
    pub fn process_mut(&mut self, pid: Pid) -> Result<&mut Process, Errno> {
        self.procs.get_mut(&pid).ok_or(Errno::ESRCH)
    }

    fn ensure_aspace(&mut self, ctx: &mut KernelCtx<'_>, pid: Pid) -> Result<AddressSpace, Errno> {
        if let Some(a) = self.process(pid)?.aspace {
            return Ok(a);
        }
        self.refill_pt_pool(8).map_err(|_| Errno::ENOMEM)?;
        let aspace = AddressSpace::new(&mut ctx.hv.machine, self.vmpl, &mut self.pt_free)
            .map_err(|_| Errno::ENOMEM)?;
        self.process_mut(pid)?.aspace = Some(aspace);
        Ok(aspace)
    }

    fn refill_pt_pool(&mut self, min: usize) -> Result<(), OsError> {
        while self.pt_free.len() < min {
            let gfn = self.frames.alloc()?;
            self.pt_free.push(gfn);
        }
        Ok(())
    }

    /// Zeroes `frames` and maps them as user data at `addr..`. On failure,
    /// returns how many pages it mapped along with the error.
    fn map_zeroed(
        &mut self,
        ctx: &mut KernelCtx<'_>,
        aspace: AddressSpace,
        addr: u64,
        frames: &[u64],
    ) -> Result<(), (usize, Errno)> {
        self.refill_pt_pool(frames.len() / 512 + 4).map_err(|_| (0, Errno::ENOMEM))?;
        for (i, gfn) in frames.iter().enumerate() {
            // Zero fresh pages before handing them to user space.
            ctx.hv
                .machine
                .write(self.vmpl, gpa_of(*gfn), &[0u8; PAGE_SIZE])
                .map_err(|_| (i, Errno::EFAULT))?;
            let touch =
                ctx.hv.machine.cost().page_touch + ctx.hv.machine.cost().copy(PAGE_SIZE / 2);
            ctx.hv.machine.charge(CostCategory::KernelService, touch);
            aspace
                .map(
                    &mut ctx.hv.machine,
                    self.vmpl,
                    &mut self.pt_free,
                    addr + (i * PAGE_SIZE) as u64,
                    *gfn,
                    PteFlags::user_data(),
                )
                .map_err(|_| (i, Errno::ENOMEM))?;
        }
        Ok(())
    }

    /// Unmaps the pages at `addr..` backed by `frames` and frees each frame
    /// whose page left the tables. A page that will not unmap keeps its
    /// frame out of the pool, and the call fails with `EFAULT` once every
    /// other page is done.
    fn unmap_frames(
        &mut self,
        ctx: &mut KernelCtx<'_>,
        aspace: AddressSpace,
        addr: u64,
        frames: &[u64],
    ) -> Result<(), Errno> {
        let mut res = Ok(());
        for (i, gfn) in frames.iter().enumerate() {
            match aspace.unmap(&mut ctx.hv.machine, self.vmpl, addr + (i * PAGE_SIZE) as u64) {
                Ok(_) => self.frames.free(*gfn),
                Err(_) => res = Err(Errno::EFAULT),
            }
        }
        res
    }

    // ---- audit -----------------------------------------------------------

    /// The `audit_log_end` hook. `KernelSys`'s syscall helper calls it at
    /// every syscall exit, failed calls included; only ruled syscalls
    /// leave a record.
    fn audit_syscall(&mut self, ctx: &mut KernelCtx<'_>, pid: Pid, sysno: Sysno, ret: i64) {
        if !self.audit.matches(sysno) {
            return;
        }
        let tsc = ctx.hv.machine.cycles().total();
        let uid = self.procs.get(&pid).map(|p| p.uid).unwrap_or(0);
        let rec = self.audit.make_record(pid, uid, sysno, ret, tsc);
        let record_cost = ctx.hv.machine.cost().audit_record;
        ctx.hv.machine.charge(CostCategory::AuditLog, record_cost);
        ctx.hv.machine.trace_event(Event::AuditAppend { pid, sysno: sysno.num() as u32 });
        match self.audit.mode {
            AuditMode::Off => {}
            AuditMode::Kaudit => self.audit.kaudit_log.push(rec),
            AuditMode::KauditDisk => {
                // auditd: netlink relay to user space + formatted write
                // to /var/log/audit/audit.log + periodic fsync.
                let bytes = rec.to_bytes();
                let disk_cost = 24_000 + ctx.hv.machine.cost().copy(bytes.len()) * 3;
                ctx.hv.machine.charge(CostCategory::AuditLog, disk_cost);
                let ino = match self.vfs.resolve("/var/log/audit.log") {
                    Ok(ino) => ino,
                    Err(_) => match self.vfs.create("/var/log/audit.log", 0o600) {
                        Ok(ino) => ino,
                        Err(_) => {
                            self.audit_failures += 1;
                            return;
                        }
                    },
                };
                let end = self.vfs.inode(ino).map(|n| n.size()).unwrap_or(0);
                if self.vfs.write_at(ino, end, &bytes).is_err() {
                    self.audit_failures += 1;
                }
            }
            AuditMode::VeilLog => {
                // Execute-ahead (§6.3): serially, the record reaches
                // Dom_SER storage before the syscall continues. With the
                // batched gate path it waits in the gate ring, which
                // Dom_UNT can write, until a later doorbell drains the
                // queue under one switch, so the guarantee holds from the
                // drain, not from the syscall (DESIGN.md §12).
                let req = MonRequest::LogAppend { record: rec.to_bytes() };
                if ctx.gate.request_deferred(ctx.hv, ctx.vcpu, req).is_err() {
                    self.audit_failures += 1;
                }
            }
        }
    }

    // ---- syscall helpers ----------------------------------------------------

    fn sock_of(&self, pid: Pid, fd: Fd) -> Result<usize, Errno> {
        match self.process(pid)?.fd(fd)? {
            FdEntry::Socket(sid) => Ok(*sid),
            _ => Err(Errno::EBADF),
        }
    }

    /// Moves a file descriptor's offset to `to` (other descriptors have none).
    fn set_offset(&mut self, pid: Pid, fd: Fd, to: usize) -> Result<(), Errno> {
        if let FdEntry::File { offset, .. } = self.process_mut(pid)?.fd_mut(fd)? {
            *offset = to;
        }
        Ok(())
    }

    // ---- enclave kernel-module helpers (§7) ----------------------------------

    /// Maps a specific frame into a process at `vaddr` — used by the
    /// enclave kernel module while laying out the initial region.
    pub fn map_user_page(
        &mut self,
        ctx: &mut KernelCtx<'_>,
        pid: Pid,
        vaddr: u64,
        gfn: u64,
        flags: PteFlags,
    ) -> Result<(), Errno> {
        let aspace = self.ensure_aspace(ctx, pid)?;
        self.refill_pt_pool(4).map_err(|_| Errno::ENOMEM)?;
        let touch = ctx.hv.machine.cost().page_touch;
        ctx.hv.machine.charge(CostCategory::KernelService, touch);
        aspace
            .map(&mut ctx.hv.machine, self.vmpl, &mut self.pt_free, vaddr, gfn, flags)
            .map_err(|_| Errno::ENOMEM)
    }

    /// Removes a process mapping, returning the frame.
    pub fn unmap_user_page(
        &mut self,
        ctx: &mut KernelCtx<'_>,
        pid: Pid,
        vaddr: u64,
    ) -> Result<u64, Errno> {
        let aspace = self.process(pid)?.aspace.ok_or(Errno::EINVAL)?;
        aspace.unmap(&mut ctx.hv.machine, self.vmpl, vaddr).map_err(|_| Errno::EFAULT)
    }

    // ---- modules (the VeilS-KCI hook points, §6.1) --------------------------

    /// `init_module`: stages the image in guest frames and either performs
    /// a native load (no KCI) or delegates verification + installation to
    /// VeilS-KCI.
    ///
    /// # Errors
    ///
    /// * [`Refusal::ModuleAlreadyLoaded`] when a module of the same name is
    ///   loaded;
    /// * [`Refusal::BadModuleSignature`] when the signature does not verify.
    ///
    /// Every frame the load allocated is free again when it fails.
    pub fn load_module(
        &mut self,
        ctx: &mut KernelCtx<'_>,
        image: &ModuleImage,
    ) -> Result<(), OsError> {
        if self.modules.contains_key(&image.name) {
            return Err(Refusal::ModuleAlreadyLoaded.into());
        }
        let bytes = image.serialize();
        let text_pages = image.text.len().div_ceil(PAGE_SIZE).max(1);
        let staging = self.frames.alloc_n(bytes.len().div_ceil(PAGE_SIZE))?;
        let dest = match self.frames.alloc_n(text_pages) {
            Ok(dest) => dest,
            Err(e) => {
                for gfn in staging {
                    self.frames.free(gfn);
                }
                return Err(e);
            }
        };
        let result = self.install_module(ctx, image, &bytes, &staging, &dest);
        // Staging frames are scratch either way.
        for gfn in staging {
            self.frames.free(gfn);
        }
        if let Err(e) = result {
            for gfn in dest {
                self.frames.free(gfn);
            }
            return Err(e);
        }
        ctx.hv.machine.trace_event(Event::ModuleLoad {
            pages: text_pages as u32,
            protected: self.kci,
            load: true,
        });
        self.modules.insert(
            image.name.clone(),
            LoadedModule {
                name: image.name.clone(),
                text_gfns: dest,
                size: text_pages * PAGE_SIZE,
                kci_protected: self.kci,
            },
        );
        Ok(())
    }

    /// The part of [`Self::load_module`] that can fail once its frames are
    /// allocated: stages `bytes` in `staging`, then installs the text into
    /// `dest`, natively or through VeilS-KCI. The caller frees both.
    fn install_module(
        &mut self,
        ctx: &mut KernelCtx<'_>,
        image: &ModuleImage,
        bytes: &[u8],
        staging: &[u64],
        dest: &[u64],
    ) -> Result<(), OsError> {
        // Stage the raw image for the monitor to fetch.
        for (gfn, chunk) in staging.iter().zip(bytes.chunks(PAGE_SIZE)) {
            ctx.hv.machine.write(self.vmpl, gpa_of(*gfn), chunk)?;
        }
        let copy_cost = ctx.hv.machine.cost().copy(bytes.len());
        ctx.hv.machine.charge(CostCategory::KernelService, copy_cost);
        // Kernel-side page prep cost (allocation, zeroing, mapping).
        let prep = ctx.hv.machine.cost().module_page_load * dest.len() as u64;
        ctx.hv.machine.charge(CostCategory::KernelService, prep);

        if self.kci {
            let req = MonRequest::KciModuleLoad {
                staging_gfns: staging.to_vec(),
                image_len: bytes.len(),
                dest_gfns: dest.to_vec(),
            };
            return ctx.gate.request(ctx.hv, ctx.vcpu, req).map(|_| ());
        }
        // Native path: the kernel verifies and installs itself.
        let sha_cost = ctx.hv.machine.cost().sha256(bytes.len());
        ctx.hv.machine.charge(CostCategory::KernelService, sha_cost);
        if !image.verify(&self.vendor_key) {
            return Err(Refusal::BadModuleSignature.into());
        }
        let mut text = image.text.clone();
        ModuleImage::relocate(&mut text, &image.relocs, &|s| self.symbols.get(s).copied())?;
        for (gfn, chunk) in dest.iter().zip(text.chunks(PAGE_SIZE)) {
            ctx.hv.machine.write(self.vmpl, gpa_of(*gfn), chunk)?;
        }
        let c = ctx.hv.machine.cost().copy(text.len());
        ctx.hv.machine.charge(CostCategory::KernelService, c);
        Ok(())
    }

    /// `delete_module`: under KCI, the monitor must lift the write
    /// protection before the kernel can reuse the frames. The module stays
    /// loaded until it has, so a refused unload can be retried.
    pub fn unload_module(&mut self, ctx: &mut KernelCtx<'_>, name: &str) -> Result<(), OsError> {
        let module = self.modules.get(name).ok_or(Refusal::ModuleNotLoaded)?;
        if module.kci_protected {
            let req = MonRequest::KciModuleUnload { text_gfns: module.text_gfns.clone() };
            ctx.gate.request(ctx.hv, ctx.vcpu, req)?;
        }
        let module = self.modules.remove(name).ok_or(Refusal::ModuleNotLoaded)?;
        let prep = ctx.hv.machine.cost().module_page_load * module.text_gfns.len() as u64;
        ctx.hv.machine.charge(CostCategory::KernelService, prep);
        ctx.hv.machine.trace_event(Event::ModuleLoad {
            pages: module.text_gfns.len() as u32,
            protected: module.kci_protected,
            load: false,
        });
        for gfn in module.text_gfns {
            self.frames.free(gfn);
        }
        Ok(())
    }

    // ---- delegation (§5.3) ---------------------------------------------------

    /// Hotplugs a VCPU: prepares its initial state and delegates VMSA
    /// creation to the monitor.
    pub fn hotplug_vcpu(
        &mut self,
        ctx: &mut KernelCtx<'_>,
        new_vcpu_id: u32,
    ) -> Result<(), OsError> {
        // Kernel-side state prep (stack, entry, page tables).
        let stack = self.frames.alloc()?;
        let req = MonRequest::CreateVcpu {
            vcpu_id: new_vcpu_id,
            rip: 0xffff_8000_1000,
            rsp: gpa_of(stack) + PAGE_SIZE as u64,
            cr3: 0,
        };
        ctx.gate.request(ctx.hv, ctx.vcpu, req)?;
        // Give the new VCPU a kernel GHCB.
        if let Some(g) = self.spare_ghcbs.pop() {
            self.ghcbs.insert(new_vcpu_id, g);
            ctx.hv.machine.set_ghcb_msr(new_vcpu_id, g);
        }
        Ok(())
    }

    /// Accepts a page from the hypervisor (ballooning/hotplug): asks the
    /// hypervisor for the page-state change, then delegates the
    /// `PVALIDATE` to the monitor (§5.3).
    pub fn accept_page(&mut self, ctx: &mut KernelCtx<'_>, gfn: u64) -> Result<(), OsError> {
        let ghcb_gfn = *self.ghcbs.get(&ctx.vcpu).ok_or(Refusal::NoGhcb)?;
        let ghcb = Ghcb::at(&ctx.hv.machine, ghcb_gfn).ok_or(Refusal::GhcbNotShared)?;
        ghcb.write_request(&mut ctx.hv.machine, self.vmpl, GhcbExit::PageStateChange, gfn, 1)?;
        match ctx.hv.vmgexit(ctx.vcpu, false)? {
            veil_hv::HvResponse::PageStateChanged => {}
            other => return Err(Refusal::of_response(&other).into()),
        }
        ctx.gate.request(ctx.hv, ctx.vcpu, MonRequest::Pvalidate { gfn, validate: true })?;
        self.frames.donate(gfn);
        Ok(())
    }
}

/// [`Sys`] implementation backed directly by the kernel: the path a
/// native (non-enclave) process takes, and the kernel's only syscall
/// layer. Every syscall runs through one helper that charges the entry
/// cost, runs the body and hands the result to the `audit_log_end` hook,
/// so every exit of a ruled syscall leaves a record, failed calls
/// included.
pub struct KernelSys<'a> {
    /// The kernel.
    pub kernel: &'a mut Kernel,
    /// Hypervisor owning the machine.
    pub hv: &'a mut Hypervisor,
    /// Monitor gate.
    pub gate: &'a mut dyn MonitorChannel,
    /// VCPU the process is scheduled on.
    pub vcpu: u32,
    /// Calling process.
    pub pid: Pid,
}

/// How a successful syscall's value appears in its audit record; failed
/// calls carry the negative errno.
trait AuditRet {
    fn audit_ret(&self) -> i64 {
        0
    }
}

macro_rules! audit_ret_as_i64 {
    ($($t:ty),*) => {$(
        impl AuditRet for $t {
            fn audit_ret(&self) -> i64 {
                *self as i64
            }
        }
    )*};
}
audit_ret_as_i64!(usize, i32, u32, u64);

impl AuditRet for () {}

impl AuditRet for SysStat {}

/// `socketpair`: the first descriptor.
impl AuditRet for (Fd, Fd) {
    fn audit_ret(&self) -> i64 {
        self.0 as i64
    }
}

/// `getdents`: the number of entries.
impl AuditRet for Vec<String> {
    fn audit_ret(&self) -> i64 {
        self.len() as i64
    }
}

impl KernelSys<'_> {
    fn ctx(&mut self) -> (&mut Kernel, KernelCtx<'_>) {
        (self.kernel, KernelCtx { hv: self.hv, gate: self.gate, vcpu: self.vcpu })
    }

    /// Services one syscall: charges `syscall_base`, runs `body` (whose
    /// own charges and gate requests follow), then audits the exit.
    fn syscall<T: AuditRet>(
        &mut self,
        sysno: Sysno,
        body: impl FnOnce(&mut Kernel, &mut KernelCtx<'_>, Pid) -> Result<T, Errno>,
    ) -> Result<T, Errno> {
        let pid = self.pid;
        let (kernel, mut ctx) = self.ctx();
        let base = ctx.hv.machine.cost().syscall_base;
        ctx.hv.machine.charge(CostCategory::KernelService, base);
        let result = body(kernel, &mut ctx, pid);
        let ret = match &result {
            Ok(value) => value.audit_ret(),
            Err(e) => e.as_neg_ret(),
        };
        kernel.audit_syscall(&mut ctx, pid, sysno, ret);
        result
    }
}

impl Sys for KernelSys<'_> {
    fn open(&mut self, path: &str, flags: OpenFlags) -> Result<Fd, Errno> {
        self.syscall(Sysno::Open, |k, ctx, pid| {
            // Path resolution walks the dcache: per-component hashing plus
            // inode lookups (calibrated against Fig. 4's open ratio).
            ctx.charge_copy(path.len());
            ctx.hv.machine.charge(CostCategory::KernelService, 1200);
            let ino = match k.vfs.resolve(path) {
                Ok(ino) => {
                    if flags.truncate {
                        k.vfs.truncate(ino, 0)?;
                    }
                    ino
                }
                Err(Errno::ENOENT) if flags.create => k.vfs.create(path, 0o644)?,
                Err(e) => return Err(e),
            };
            if k.vfs.inode(ino)?.is_dir() && flags.write {
                return Err(Errno::EISDIR);
            }
            let entry =
                FdEntry::File { ino, offset: 0, writable: flags.write, append: flags.append };
            Ok(k.process_mut(pid)?.install_fd(entry))
        })
    }

    fn close(&mut self, fd: Fd) -> Result<(), Errno> {
        self.syscall(Sysno::Close, |k, _, pid| {
            if let FdEntry::Socket(sid) = k.process_mut(pid)?.remove_fd(fd)? {
                let _ = k.sockets.close(sid);
            }
            Ok(())
        })
    }

    /// Files, sockets and the console.
    fn read(&mut self, fd: Fd, buf: &mut [u8]) -> Result<usize, Errno> {
        self.syscall(Sysno::Read, |k, ctx, pid| {
            ctx.charge_copy(buf.len());
            match k.process(pid)?.fd(fd)?.clone() {
                FdEntry::File { ino, offset, .. } => {
                    let n = k.vfs.read_at(ino, offset, buf)?;
                    k.set_offset(pid, fd, offset + n)?;
                    Ok(n)
                }
                FdEntry::Socket(sid) => k.sockets.recv(sid, buf),
                FdEntry::Console => Ok(0),
            }
        })
    }

    fn write(&mut self, fd: Fd, buf: &[u8]) -> Result<usize, Errno> {
        self.syscall(Sysno::Write, |k, ctx, pid| {
            ctx.charge_copy(buf.len());
            match k.process(pid)?.fd(fd)?.clone() {
                FdEntry::File { writable: false, .. } => Err(Errno::EBADF),
                FdEntry::File { ino, offset, append, .. } => {
                    let at = if append { k.vfs.inode(ino)?.size() } else { offset };
                    let n = k.vfs.write_at(ino, at, buf)?;
                    k.set_offset(pid, fd, at + n)?;
                    Ok(n)
                }
                FdEntry::Socket(sid) => k.sockets.send(sid, buf),
                FdEntry::Console => {
                    k.console.extend_from_slice(buf);
                    Ok(buf.len())
                }
            }
        })
    }

    fn pread(&mut self, fd: Fd, buf: &mut [u8], offset: u64) -> Result<usize, Errno> {
        self.syscall(Sysno::Pread64, |k, ctx, pid| {
            ctx.charge_copy(buf.len());
            match k.process(pid)?.fd(fd)?.clone() {
                FdEntry::File { ino, .. } => k.vfs.read_at(ino, offset as usize, buf),
                _ => Err(Errno::ESPIPE),
            }
        })
    }

    fn pwrite(&mut self, fd: Fd, buf: &[u8], offset: u64) -> Result<usize, Errno> {
        self.syscall(Sysno::Pwrite64, |k, ctx, pid| {
            ctx.charge_copy(buf.len());
            match k.process(pid)?.fd(fd)?.clone() {
                FdEntry::File { writable: false, .. } => Err(Errno::EBADF),
                FdEntry::File { ino, .. } => k.vfs.write_at(ino, offset as usize, buf),
                _ => Err(Errno::ESPIPE),
            }
        })
    }

    fn lseek(&mut self, fd: Fd, offset: i64, whence: Whence) -> Result<u64, Errno> {
        self.syscall(Sysno::Lseek, |k, _, pid| {
            let FdEntry::File { ino, offset: cur, .. } = k.process(pid)?.fd(fd)?.clone() else {
                return Err(Errno::ESPIPE);
            };
            let size = k.vfs.inode(ino)?.size() as i64;
            let base = match whence {
                Whence::Set => 0,
                Whence::Cur => cur as i64,
                Whence::End => size,
            };
            // Like Linux's `vfs_setpos`: an overflowing or negative offset
            // is refused and the old one kept.
            let new = base.checked_add(offset).filter(|&n| n >= 0).ok_or(Errno::EINVAL)?;
            k.set_offset(pid, fd, new as usize)?;
            Ok(new as u64)
        })
    }

    fn stat(&mut self, path: &str) -> Result<SysStat, Errno> {
        self.syscall(Sysno::Stat, |k, _, _| {
            let node = k.vfs.inode(k.vfs.resolve(path)?)?;
            Ok(SysStat {
                size: node.size() as u64,
                mode: node.mode,
                nlink: node.nlink,
                is_dir: node.is_dir(),
            })
        })
    }

    fn fstat(&mut self, fd: Fd) -> Result<SysStat, Errno> {
        self.syscall(Sysno::Fstat, |k, _, pid| match k.process(pid)?.fd(fd)?.clone() {
            FdEntry::File { ino, .. } => {
                let node = k.vfs.inode(ino)?;
                Ok(SysStat {
                    size: node.size() as u64,
                    mode: node.mode,
                    nlink: node.nlink,
                    is_dir: node.is_dir(),
                })
            }
            _ => Ok(SysStat { size: 0, mode: 0o666, nlink: 1, is_dir: false }),
        })
    }

    fn mkdir(&mut self, path: &str) -> Result<(), Errno> {
        self.syscall(Sysno::Mkdir, |k, _, _| k.vfs.mkdir(path, 0o755).map(|_| ()))
    }

    fn rmdir(&mut self, path: &str) -> Result<(), Errno> {
        self.syscall(Sysno::Rmdir, |k, _, _| k.vfs.rmdir(path))
    }

    fn unlink(&mut self, path: &str) -> Result<(), Errno> {
        self.syscall(Sysno::Unlink, |k, _, _| k.vfs.unlink(path))
    }

    fn rename(&mut self, from: &str, to: &str) -> Result<(), Errno> {
        self.syscall(Sysno::Rename, |k, _, _| k.vfs.rename(from, to))
    }

    fn link(&mut self, existing: &str, new_path: &str) -> Result<(), Errno> {
        self.syscall(Sysno::Link, |k, _, _| k.vfs.link(existing, new_path))
    }

    fn symlink(&mut self, target: &str, link_path: &str) -> Result<(), Errno> {
        self.syscall(Sysno::Symlink, |k, _, _| k.vfs.symlink(link_path, target).map(|_| ()))
    }

    fn ftruncate(&mut self, fd: Fd, len: u64) -> Result<(), Errno> {
        self.syscall(Sysno::Ftruncate, |k, _, pid| match k.process(pid)?.fd(fd)?.clone() {
            FdEntry::File { writable: false, .. } => Err(Errno::EBADF),
            FdEntry::File { ino, .. } => k.vfs.truncate(ino, len as usize),
            _ => Err(Errno::EINVAL),
        })
    }

    fn chmod(&mut self, path: &str, mode: u32) -> Result<(), Errno> {
        self.syscall(Sysno::Chmod, |k, _, _| k.vfs.chmod(k.vfs.resolve(path)?, mode))
    }

    fn fchmod(&mut self, fd: Fd, mode: u32) -> Result<(), Errno> {
        self.syscall(Sysno::Fchmod, |k, _, pid| match k.process(pid)?.fd(fd)?.clone() {
            FdEntry::File { ino, .. } => k.vfs.chmod(ino, mode),
            _ => Err(Errno::EINVAL),
        })
    }

    fn getdents(&mut self, fd: Fd) -> Result<Vec<String>, Errno> {
        self.syscall(Sysno::Getdents, |k, _, pid| match k.process(pid)?.fd(fd)?.clone() {
            FdEntry::File { ino, .. } => k.vfs.readdir(ino),
            _ => Err(Errno::ENOTDIR),
        })
    }

    /// Anonymous, page-rounded and eagerly backed (the simulation has no
    /// lazy faults for ordinary processes). A failed call keeps nothing,
    /// except an enclave process's region whose failed mirror VeilS-ENC
    /// will not confirm revoked: that region stays recorded.
    fn mmap(&mut self, len: usize) -> Result<u64, Errno> {
        self.syscall(Sysno::Mmap, |k, ctx, pid| {
            if len == 0 {
                return Err(Errno::EINVAL);
            }
            let pages = len.div_ceil(PAGE_SIZE);
            let aspace = k.ensure_aspace(ctx, pid)?;
            let frames = k.frames.alloc_n(pages).map_err(|_| Errno::ENOMEM)?;
            let base = k.process(pid)?.mmap_cursor;
            if let Err((mapped, e)) = k.map_zeroed(ctx, aspace, base, &frames) {
                // Nothing is mirrored yet: every frame goes straight back.
                let _ = k.unmap_frames(ctx, aspace, base, &frames[..mapped]);
                frames[mapped..].iter().for_each(|gfn| k.frames.free(*gfn));
                return Err(e);
            }
            // Enclave processes: mirror the new shared region into the
            // protected tables so the enclave can reach it (§6.2).
            let mut res = Ok(base);
            if let Some(enclave_id) = k.process(pid)?.enclave_id {
                let sync = |map| MonRequest::EncMapSync {
                    enclave_id,
                    base_vaddr: base,
                    pages: pages as u64,
                    map,
                };
                if ctx.gate.request(ctx.hv, ctx.vcpu, sync(true)).is_err() {
                    // The caller never learns `base`, so it could never
                    // unmap the region: take it back here. The failed
                    // mirror may have mapped some of its pages, so, as in
                    // `munmap`, the frames return to the pool only once
                    // VeilS-ENC confirms the revocation. Without that the
                    // region stays recorded and keeps its frames.
                    res = Err(Errno::ENOMEM);
                    if ctx.gate.request(ctx.hv, ctx.vcpu, sync(false)).is_ok() {
                        let _ = k.unmap_frames(ctx, aspace, base, &frames);
                        return res;
                    }
                }
            }
            let proc = k.process_mut(pid)?;
            proc.mmap_cursor += (pages * PAGE_SIZE) as u64 + PAGE_SIZE as u64; // guard gap
            proc.mmaps.insert(base, MmapRegion { len: pages * PAGE_SIZE, frames });
            res
        })
    }

    /// Unmaps a whole region returned by [`Sys::mmap`]. An enclave
    /// process's region leaves the protected tables first; if VeilS-ENC
    /// cannot confirm that, the call fails with `EBUSY` and the region
    /// stays mapped.
    fn munmap(&mut self, addr: u64, len: usize) -> Result<(), Errno> {
        self.syscall(Sysno::Munmap, |k, ctx, pid| {
            let aspace = k.process(pid)?.aspace.ok_or(Errno::EINVAL)?;
            let region_len = k.process(pid)?.mmaps.get(&addr).ok_or(Errno::EINVAL)?.len;
            // TLB shootdown per unmapped page.
            let pages = len.div_ceil(PAGE_SIZE);
            ctx.hv.machine.charge(CostCategory::KernelService, 2000 * pages as u64);
            if pages * PAGE_SIZE != region_len {
                return Err(Errno::EINVAL); // partial unmap unsupported
            }
            if let Some(enclave_id) = k.process(pid)?.enclave_id {
                let req = MonRequest::EncMapSync {
                    enclave_id,
                    base_vaddr: addr,
                    pages: pages as u64,
                    map: false,
                };
                // Revocations never ride the batched path: the clone mapping
                // must be gone before the frames return to the pool, or the
                // enclave could reach recycled memory through a stale entry.
                if ctx.gate.request(ctx.hv, ctx.vcpu, req).is_err() {
                    return Err(Errno::EBUSY);
                }
            }
            let region = k.process_mut(pid)?.mmaps.remove(&addr).ok_or(Errno::EINVAL)?;
            k.unmap_frames(ctx, aspace, addr, &region.frames)
        })
    }

    /// Over a whole mmap region. Enclave-region permission changes are
    /// *not* the kernel's to make: the SDK routes those to VeilS-ENC. For
    /// an enclave process, this path mirrors each changed page into the
    /// protected tables with `EncPermSync` (§6.2).
    fn mprotect(&mut self, addr: u64, len: usize, prot_write: bool) -> Result<(), Errno> {
        self.syscall(Sysno::Mprotect, |k, ctx, pid| {
            let aspace = k.process(pid)?.aspace.ok_or(Errno::EINVAL)?;
            if !k.process(pid)?.mmaps.contains_key(&addr) {
                return Err(Errno::EINVAL);
            }
            let flags = if prot_write { PteFlags::user_data() } else { PteFlags::user_ro() };
            for i in 0..len.div_ceil(PAGE_SIZE) {
                let va = addr + (i * PAGE_SIZE) as u64;
                aspace
                    .protect(&mut ctx.hv.machine, k.vmpl, va, flags)
                    .map_err(|_| Errno::EFAULT)?;
                if let Some(enclave_id) = k.process(pid)?.enclave_id {
                    let req =
                        MonRequest::EncPermSync { enclave_id, vaddr: va, pte_flags: flags.bits() };
                    if ctx.gate.request(ctx.hv, ctx.vcpu, req).is_err() {
                        return Err(Errno::EACCES);
                    }
                }
            }
            Ok(())
        })
    }

    /// A user-space store through the process page tables (CPL-3 rules):
    /// no syscall, so no base charge and no audit record.
    fn mem_write(&mut self, addr: u64, data: &[u8]) -> Result<(), Errno> {
        let pid = self.pid;
        let (k, mut ctx) = self.ctx();
        ctx.charge_copy(data.len());
        let aspace = k.process(pid)?.aspace.ok_or(Errno::EFAULT)?;
        aspace
            .write_virt(&mut ctx.hv.machine, addr, data, k.vmpl, Cpl::Cpl3)
            .map_err(|_| Errno::EFAULT)
    }

    /// A user-space load through the process page tables, like
    /// [`Sys::mem_write`].
    fn mem_read(&mut self, addr: u64, buf: &mut [u8]) -> Result<(), Errno> {
        let pid = self.pid;
        let (k, mut ctx) = self.ctx();
        ctx.charge_copy(buf.len());
        let aspace = k.process(pid)?.aspace.ok_or(Errno::EFAULT)?;
        aspace
            .read_virt_into(&ctx.hv.machine, addr, buf, k.vmpl, Cpl::Cpl3)
            .map_err(|_| Errno::EFAULT)
    }

    fn socket(&mut self) -> Result<Fd, Errno> {
        self.syscall(Sysno::Socket, |k, ctx, pid| {
            // Socket buffer allocation + protocol setup.
            ctx.hv.machine.charge(CostCategory::KernelService, 600);
            let sid = k.sockets.socket();
            Ok(k.process_mut(pid)?.install_fd(FdEntry::Socket(sid)))
        })
    }

    fn bind(&mut self, fd: Fd, port: u16) -> Result<(), Errno> {
        self.syscall(Sysno::Bind, |k, _, pid| k.sockets.bind(k.sock_of(pid, fd)?, port))
    }

    fn listen(&mut self, fd: Fd) -> Result<(), Errno> {
        self.syscall(Sysno::Listen, |k, _, pid| k.sockets.listen(k.sock_of(pid, fd)?))
    }

    fn accept(&mut self, fd: Fd) -> Result<Fd, Errno> {
        self.syscall(Sysno::Accept, |k, _, pid| {
            let conn = k.sockets.accept(k.sock_of(pid, fd)?)?;
            Ok(k.process_mut(pid)?.install_fd(FdEntry::Socket(conn)))
        })
    }

    fn connect(&mut self, fd: Fd, port: u16) -> Result<(), Errno> {
        self.syscall(Sysno::Connect, |k, _, pid| k.sockets.connect(k.sock_of(pid, fd)?, port))
    }

    fn send(&mut self, fd: Fd, data: &[u8]) -> Result<usize, Errno> {
        self.syscall(Sysno::Sendto, |k, ctx, pid| {
            ctx.charge_copy(data.len());
            k.sockets.send(k.sock_of(pid, fd)?, data)
        })
    }

    fn recv(&mut self, fd: Fd, buf: &mut [u8]) -> Result<usize, Errno> {
        self.syscall(Sysno::Recvfrom, |k, ctx, pid| {
            ctx.charge_copy(buf.len());
            k.sockets.recv(k.sock_of(pid, fd)?, buf)
        })
    }

    fn socketpair(&mut self) -> Result<(Fd, Fd), Errno> {
        self.syscall(Sysno::Socketpair, |k, _, pid| {
            let (a, b) = k.sockets.socketpair();
            let proc = k.process_mut(pid)?;
            Ok((proc.install_fd(FdEntry::Socket(a)), proc.install_fd(FdEntry::Socket(b))))
        })
    }

    fn dup(&mut self, fd: Fd) -> Result<Fd, Errno> {
        self.syscall(Sysno::Dup, |k, _, pid| {
            let entry = k.process(pid)?.fd(fd)?.clone();
            Ok(k.process_mut(pid)?.install_fd(entry))
        })
    }

    fn dup2(&mut self, fd: Fd, new_fd: Fd) -> Result<Fd, Errno> {
        self.syscall(Sysno::Dup2, |k, _, pid| {
            let entry = k.process(pid)?.fd(fd)?.clone();
            k.process_mut(pid)?.install_fd_at(new_fd, entry);
            Ok(new_fd)
        })
    }

    fn getpid(&mut self) -> Result<u32, Errno> {
        self.syscall(Sysno::Getpid, |_, _, pid| Ok(pid))
    }

    fn getuid(&mut self) -> Result<u32, Errno> {
        self.syscall(Sysno::Getuid, |k, _, pid| Ok(k.process(pid)?.uid))
    }

    fn setuid(&mut self, uid: u32) -> Result<(), Errno> {
        self.syscall(Sysno::Setuid, |k, _, pid| {
            k.process_mut(pid)?.uid = uid;
            Ok(())
        })
    }

    fn print(&mut self, msg: &str) -> Result<usize, Errno> {
        self.write(1, msg.as_bytes())
    }

    fn clock_gettime(&mut self) -> Result<u64, Errno> {
        self.syscall(Sysno::ClockGettime, |_, ctx, _| {
            Ok(ctx.hv.machine.cycles().total().saturating_mul(1_000_000_000) / CLOCK_HZ)
        })
    }

    /// An in-kernel copy between descriptors.
    fn sendfile(&mut self, out_fd: Fd, in_fd: Fd, len: usize) -> Result<usize, Errno> {
        self.syscall(Sysno::Sendfile, |k, ctx, pid| {
            let FdEntry::File { ino, offset, .. } = k.process(pid)?.fd(in_fd)?.clone() else {
                return Err(Errno::EINVAL);
            };
            // Copy no more than the source holds past its offset, so a
            // huge `len` neither charges nor allocates what is not there.
            let len = len.min(k.vfs.inode(ino)?.size().saturating_sub(offset));
            ctx.charge_copy(len);
            let mut data = vec![0u8; len];
            let n = k.vfs.read_at(ino, offset, &mut data)?;
            k.set_offset(pid, in_fd, offset + n)?;
            match k.process(pid)?.fd(out_fd)?.clone() {
                FdEntry::Socket(sid) => k.sockets.send(sid, &data),
                FdEntry::File { writable: false, .. } => Err(Errno::EBADF),
                FdEntry::File { ino, offset, .. } => {
                    let n = k.vfs.write_at(ino, offset, &data)?;
                    k.set_offset(pid, out_fd, offset + n)?;
                    Ok(n)
                }
                FdEntry::Console => {
                    k.console.extend_from_slice(&data);
                    Ok(data.len())
                }
            }
        })
    }

    fn burn(&mut self, cycles: u64) {
        self.hv.machine.charge(CostCategory::Compute, cycles);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::monitor::NativeMonitor;
    use veil_snp::machine::{Machine, MachineConfig};

    /// Boots a native CVM: kernel at VMPL-0 with frames 16..496 validated.
    fn native() -> (Hypervisor, NativeMonitor, Kernel) {
        let machine = Machine::new(MachineConfig { frames: 512, ..MachineConfig::default() });
        let mut hv = Hypervisor::new(machine);
        hv.launch(&[(1, b"kernel image".to_vec())], 2).unwrap();
        for gfn in 16..496u64 {
            hv.machine.rmp_assign(gfn).unwrap();
            hv.machine.pvalidate(Vmpl::Vmpl0, gfn, true).unwrap();
        }
        // Frames 496..512 stay shared for GHCBs.
        let mut gate = NativeMonitor::new(vec![490, 491]);
        let config = KernelConfig {
            pool_start: 16,
            pool_end: 480,
            ghcb_gfns: vec![500, 501],
            vcpus: 1,
            vendor_key: [0x11; 32],
            kernel_text_gfns: vec![480, 481],
            kernel_data_gfns: vec![482, 483],
        };
        let kernel = {
            let mut ctx = KernelCtx { hv: &mut hv, gate: &mut gate, vcpu: 0 };
            Kernel::boot(&mut ctx, config).unwrap()
        };
        (hv, gate, kernel)
    }

    fn sys<'a>(
        hv: &'a mut Hypervisor,
        gate: &'a mut NativeMonitor,
        kernel: &'a mut Kernel,
        pid: Pid,
    ) -> KernelSys<'a> {
        KernelSys { kernel, hv, gate, vcpu: 0, pid }
    }

    #[test]
    fn lseek_refuses_overflow_and_keeps_the_offset() {
        let (mut hv, mut gate, mut kernel) = native();
        let pid = kernel.spawn();
        let mut s = sys(&mut hv, &mut gate, &mut kernel, pid);
        let fd = s.open("/tmp/seek", OpenFlags::rdwr_create()).unwrap();
        assert_eq!(s.write(fd, b"twenty bytes of text").unwrap(), 20);
        assert_eq!(s.lseek(fd, 16, Whence::Set), Ok(16));
        assert_eq!(s.lseek(fd, i64::MAX, Whence::Cur), Err(Errno::EINVAL));
        assert_eq!(s.lseek(fd, i64::MAX, Whence::End), Err(Errno::EINVAL));
        assert_eq!(s.lseek(fd, -17, Whence::Cur), Err(Errno::EINVAL));
        assert_eq!(s.lseek(fd, 0, Whence::Cur), Ok(16));
        assert_eq!(s.lseek(fd, i64::MAX - 20, Whence::End), Ok(i64::MAX as u64));
    }

    #[test]
    fn file_lifecycle_through_sys() {
        let (mut hv, mut gate, mut kernel) = native();
        let pid = kernel.spawn();
        let mut s = sys(&mut hv, &mut gate, &mut kernel, pid);
        let fd = s.open("/tmp/hello.txt", OpenFlags::rdwr_create()).unwrap();
        assert_eq!(s.write(fd, b"hello world").unwrap(), 11);
        s.lseek(fd, 0, Whence::Set).unwrap();
        let mut buf = [0u8; 11];
        assert_eq!(s.read(fd, &mut buf).unwrap(), 11);
        assert_eq!(&buf, b"hello world");
        assert_eq!(s.fstat(fd).unwrap().size, 11);
        s.close(fd).unwrap();
        assert_eq!(s.read(fd, &mut buf), Err(Errno::EBADF));
        s.unlink("/tmp/hello.txt").unwrap();
        assert_eq!(s.stat("/tmp/hello.txt"), Err(Errno::ENOENT));
    }

    #[test]
    fn append_mode() {
        let (mut hv, mut gate, mut kernel) = native();
        let pid = kernel.spawn();
        let mut s = sys(&mut hv, &mut gate, &mut kernel, pid);
        let fd = s.open("/tmp/log", OpenFlags::rdwr_create()).unwrap();
        s.write(fd, b"one").unwrap();
        s.close(fd).unwrap();
        let fd = s
            .open(
                "/tmp/log",
                OpenFlags { read: true, write: true, append: true, ..Default::default() },
            )
            .unwrap();
        s.write(fd, b"two").unwrap();
        let mut buf = [0u8; 6];
        s.pread(fd, &mut buf, 0).unwrap();
        assert_eq!(&buf, b"onetwo");
    }

    #[test]
    fn mmap_munmap_with_real_frames() {
        let (mut hv, mut gate, mut kernel) = native();
        let pid = kernel.spawn();
        let avail_before = kernel.frames.available();
        let mut s = sys(&mut hv, &mut gate, &mut kernel, pid);
        let addr = s.mmap(3 * PAGE_SIZE).unwrap();
        s.mem_write(addr + 100, b"in guest memory").unwrap();
        let mut buf = [0u8; 15];
        s.mem_read(addr + 100, &mut buf).unwrap();
        assert_eq!(&buf, b"in guest memory");
        s.munmap(addr, 3 * PAGE_SIZE).unwrap();
        assert!(s.mem_read(addr, &mut buf).is_err(), "unmapped memory faults");
        // Data frames returned (page-table frames remain allocated).
        assert!(kernel.frames.available() >= avail_before - 16);
    }

    /// A failed mmap keeps no frame, whether the kernel runs out of
    /// frames for its page tables or a page will not map.
    #[test]
    fn failed_mmap_keeps_no_frame() {
        let (mut hv, mut gate, mut kernel) = native();
        let pid = kernel.spawn();
        let mut s = sys(&mut hv, &mut gate, &mut kernel, pid);
        let first = s.mmap(PAGE_SIZE).unwrap();
        s.mmap(PAGE_SIZE).unwrap();
        let free = |k: &Kernel| k.frames.available() + k.pt_pool_len();
        let before = free(s.kernel);
        // No frame left for page tables once the region's frames are taken.
        let reserve = std::mem::take(&mut s.kernel.pt_free);
        assert_eq!(s.mmap(s.kernel.frames.available() * PAGE_SIZE), Err(Errno::ENOMEM));
        s.kernel.pt_free = reserve;
        assert_eq!(free(s.kernel), before);

        // From the guard page after `first` on into the second region.
        let guard = first + PAGE_SIZE as u64;
        s.kernel.process_mut(pid).unwrap().mmap_cursor = guard;
        assert_eq!(s.mmap(2 * PAGE_SIZE), Err(Errno::ENOMEM));
        assert_eq!(free(s.kernel), before);
        assert_eq!(s.kernel.process(pid).unwrap().mmaps.len(), 2, "no region recorded");
        assert_eq!(s.mem_read(guard, &mut [0u8; 1]), Err(Errno::EFAULT), "guard page unmapped");
    }

    #[test]
    fn mprotect_read_only_blocks_writes() {
        let (mut hv, mut gate, mut kernel) = native();
        let pid = kernel.spawn();
        let mut s = sys(&mut hv, &mut gate, &mut kernel, pid);
        let addr = s.mmap(PAGE_SIZE).unwrap();
        s.mem_write(addr, b"rw").unwrap();
        s.mprotect(addr, PAGE_SIZE, false).unwrap();
        assert_eq!(s.mem_write(addr, b"x"), Err(Errno::EFAULT));
        let mut b = [0u8; 2];
        s.mem_read(addr, &mut b).unwrap();
        assert_eq!(&b, b"rw");
    }

    #[test]
    fn sockets_through_sys() {
        let (mut hv, mut gate, mut kernel) = native();
        let server_pid = kernel.spawn();
        let client_pid = kernel.spawn();
        let (sfd, cfd, conn);
        {
            let mut s = sys(&mut hv, &mut gate, &mut kernel, server_pid);
            sfd = s.socket().unwrap();
            s.bind(sfd, 8080).unwrap();
            s.listen(sfd).unwrap();
        }
        {
            let mut c = sys(&mut hv, &mut gate, &mut kernel, client_pid);
            cfd = c.socket().unwrap();
            c.connect(cfd, 8080).unwrap();
            c.send(cfd, b"ping").unwrap();
        }
        {
            let mut s = sys(&mut hv, &mut gate, &mut kernel, server_pid);
            conn = s.accept(sfd).unwrap();
            let mut buf = [0u8; 4];
            assert_eq!(s.recv(conn, &mut buf).unwrap(), 4);
            assert_eq!(&buf, b"ping");
            s.send(conn, b"pong").unwrap();
        }
        {
            let mut c = sys(&mut hv, &mut gate, &mut kernel, client_pid);
            let mut buf = [0u8; 4];
            assert_eq!(c.recv(cfd, &mut buf).unwrap(), 4);
            assert_eq!(&buf, b"pong");
        }
    }

    #[test]
    fn kaudit_records_ruleset_syscalls() {
        let (mut hv, mut gate, mut kernel) = native();
        kernel.audit.mode = AuditMode::Kaudit;
        kernel.audit.rules = crate::audit::paper_ruleset();
        let pid = kernel.spawn();
        let mut s = sys(&mut hv, &mut gate, &mut kernel, pid);
        let fd = s.open("/tmp/a", OpenFlags::rdwr_create()).unwrap();
        s.write(fd, b"x").unwrap();
        s.lseek(fd, 0, Whence::Set).unwrap(); // lseek NOT in ruleset
        s.close(fd).unwrap();
        let sysnos: Vec<Sysno> = kernel.audit.kaudit_log.iter().map(|r| r.sysno).collect();
        assert_eq!(sysnos, vec![Sysno::Open, Sysno::Write, Sysno::Close]);
        assert!(kernel.audit.kaudit_log[0].ret >= 3, "open returns the fd");
    }

    /// The 16 bytes [`oversize_call`] leaves in `/tmp/f`.
    const FILE: &[u8; 16] = b"0123456789abcdef";

    /// Runs `call` with an open read-write descriptor on `/tmp/f` (holding
    /// [`FILE`], offset 0) and one end of a connected socket pair, with
    /// only `sysno` audited. Returns the call's result, the `ret` of its
    /// audit record and the file's bytes afterwards.
    fn oversize_call<T>(
        sysno: Sysno,
        call: impl FnOnce(&mut KernelSys<'_>, Fd, Fd) -> Result<T, Errno>,
    ) -> (Result<T, Errno>, i64, Vec<u8>) {
        let (mut hv, mut gate, mut kernel) = native();
        kernel.audit.mode = AuditMode::Kaudit;
        kernel.audit.rules = [sysno].into();
        let pid = kernel.spawn();
        let result = {
            let mut s = sys(&mut hv, &mut gate, &mut kernel, pid);
            let fd = s.open("/tmp/f", OpenFlags::rdwr_create()).unwrap();
            s.write(fd, FILE).unwrap();
            s.lseek(fd, 0, Whence::Set).unwrap();
            let (sock, _peer) = s.socketpair().unwrap();
            call(&mut s, fd, sock)
        };
        let [record] = kernel.audit.kaudit_log.as_slice() else { panic!("one audit record") };
        assert_eq!(record.sysno, sysno);
        let ino = kernel.vfs.resolve("/tmp/f").unwrap();
        let mut bytes = vec![0u8; kernel.vfs.inode(ino).unwrap().size()];
        kernel.vfs.read_at(ino, 0, &mut bytes).unwrap();
        (result, record.ret, bytes)
    }

    #[test]
    fn pwrite_ending_past_any_offset_is_efbig() {
        let (result, ret, file) =
            oversize_call(Sysno::Pwrite64, |s, fd, _| s.pwrite(fd, &[0; 16], u64::MAX - 4));
        assert_eq!(result, Err(Errno::EFBIG));
        assert_eq!(ret, Errno::EFBIG.as_neg_ret());
        assert_eq!(file, FILE);
    }

    #[test]
    fn ftruncate_past_the_largest_file_is_efbig() {
        let (result, ret, file) =
            oversize_call(Sysno::Ftruncate, |s, fd, _| s.ftruncate(fd, 1 << 40));
        assert_eq!(result, Err(Errno::EFBIG));
        assert_eq!(ret, Errno::EFBIG.as_neg_ret());
        assert_eq!(file, FILE);
    }

    #[test]
    fn sendfile_of_usize_max_copies_the_bytes_left() {
        let (result, ret, file) =
            oversize_call(Sysno::Sendfile, |s, fd, sock| s.sendfile(sock, fd, usize::MAX));
        assert_eq!(result, Ok(FILE.len()));
        assert_eq!(ret, FILE.len() as i64);
        assert_eq!(file, FILE);
    }

    #[test]
    fn sendfile_of_a_terabyte_copies_the_bytes_left() {
        let (result, ret, file) = oversize_call(Sysno::Sendfile, |s, fd, sock| {
            s.lseek(fd, 10, Whence::Set)?;
            s.sendfile(sock, fd, 1 << 40)
        });
        assert_eq!(result, Ok(6));
        assert_eq!(ret, 6);
        assert_eq!(file, FILE);
    }

    #[test]
    fn native_module_load_and_unload() {
        let (mut hv, mut gate, mut kernel) = native();
        let image = ModuleImage::build_signed("vio_blk", 8192, &[0x11; 32]);
        {
            let mut ctx = KernelCtx { hv: &mut hv, gate: &mut gate, vcpu: 0 };
            kernel.load_module(&mut ctx, &image).unwrap();
        }
        assert!(kernel.modules.contains_key("vio_blk"));
        assert!(!kernel.modules["vio_blk"].kci_protected);
        {
            let mut ctx = KernelCtx { hv: &mut hv, gate: &mut gate, vcpu: 0 };
            kernel.unload_module(&mut ctx, "vio_blk").unwrap();
        }
        assert!(!kernel.modules.contains_key("vio_blk"));
    }

    #[test]
    fn native_module_bad_signature_rejected() {
        let (mut hv, mut gate, mut kernel) = native();
        let mut image = ModuleImage::build_signed("rootkit", 4096, &[0x11; 32]);
        image.text[0] ^= 1; // tamper after signing
        let avail = kernel.frames.available();
        let mut ctx = KernelCtx { hv: &mut hv, gate: &mut gate, vcpu: 0 };
        assert!(kernel.load_module(&mut ctx, &image).is_err());
        assert_eq!(kernel.frames.available(), avail, "frames released on failure");
    }

    #[test]
    fn native_module_unknown_symbol_releases_frames() {
        let (mut hv, mut gate, mut kernel) = native();
        let mut image = ModuleImage::build_signed("bad_reloc", 4096, &[0x11; 32]);
        image.relocs[1].symbol = "no_such_symbol".into();
        image.signature = image.compute_signature(&[0x11; 32]);
        let avail = kernel.frames.available();
        let mut ctx = KernelCtx { hv: &mut hv, gate: &mut gate, vcpu: 0 };
        let err = kernel.load_module(&mut ctx, &image).unwrap_err();
        assert_eq!(err, OsError::Refused(Refusal::UnknownSymbol));
        assert_eq!(kernel.frames.available(), avail, "frames released on failure");
        assert!(kernel.modules.is_empty());
    }

    #[test]
    fn hotplug_vcpu_native() {
        let (mut hv, mut gate, mut kernel) = native();
        let mut ctx = KernelCtx { hv: &mut hv, gate: &mut gate, vcpu: 0 };
        kernel.hotplug_vcpu(&mut ctx, 1).unwrap();
        assert!(hv.vcpu(1).is_some());
        // vcpu 0 took the first reserved GHCB; the hotplug spare is next.
        assert_eq!(kernel.ghcb_gfn(0), Some(500));
        assert_eq!(kernel.ghcb_gfn(1), Some(501));
    }

    #[test]
    fn accept_page_grows_pool() {
        let (mut hv, mut gate, mut kernel) = native();
        let before = kernel.frames.available();
        let mut ctx = KernelCtx { hv: &mut hv, gate: &mut gate, vcpu: 0 };
        kernel.accept_page(&mut ctx, 505).unwrap(); // 505 was still shared
        assert_eq!(kernel.frames.available(), before + 1);
        // The page is private + validated now:
        assert!(hv.machine.write(Vmpl::Vmpl0, gpa_of(505), b"mine").is_ok());
    }

    #[test]
    fn accept_page_through_private_ghcb_is_refused() {
        let (mut hv, mut gate, mut kernel) = native();
        // The kernel's GHCB frame turns private: the hypervisor could not
        // read the request, so the kernel must not exit through it.
        hv.machine.rmp_assign(500).unwrap();
        hv.machine.pvalidate(Vmpl::Vmpl0, 500, true).unwrap();
        let mut ctx = KernelCtx { hv: &mut hv, gate: &mut gate, vcpu: 0 };
        let err = kernel.accept_page(&mut ctx, 505);
        assert_eq!(err, Err(OsError::Refused(Refusal::GhcbNotShared)));
        assert!(hv.machine.halted().is_none());
    }

    #[test]
    fn sendfile_file_to_socket() {
        let (mut hv, mut gate, mut kernel) = native();
        let pid = kernel.spawn();
        let mut s = sys(&mut hv, &mut gate, &mut kernel, pid);
        let fd = s.open("/www/page", OpenFlags::rdwr_create()).unwrap();
        s.write(fd, b"<html>hi</html>").unwrap();
        s.lseek(fd, 0, Whence::Set).unwrap();
        let (a, b) = s.socketpair().unwrap();
        assert_eq!(s.sendfile(a, fd, 15).unwrap(), 15);
        let mut buf = [0u8; 15];
        assert_eq!(s.recv(b, &mut buf).unwrap(), 15);
        assert_eq!(&buf, b"<html>hi</html>");
    }

    #[test]
    fn console_print() {
        let (mut hv, mut gate, mut kernel) = native();
        let pid = kernel.spawn();
        let mut s = sys(&mut hv, &mut gate, &mut kernel, pid);
        s.print("Hello World!").unwrap();
        assert_eq!(kernel.console(), b"Hello World!");
    }

    #[test]
    fn syscalls_charge_cycles() {
        let (mut hv, mut gate, mut kernel) = native();
        let pid = kernel.spawn();
        let before = hv.machine.cycles().of(CostCategory::KernelService);
        let mut s = sys(&mut hv, &mut gate, &mut kernel, pid);
        s.getpid().unwrap();
        assert!(hv.machine.cycles().of(CostCategory::KernelService) > before);
    }
}
