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

    // ---- audit -----------------------------------------------------------

    /// The `audit_log_end` hook: called after every serviced syscall.
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

    fn charge_base(&self, ctx: &mut KernelCtx<'_>) {
        let base = ctx.hv.machine.cost().syscall_base;
        ctx.hv.machine.charge(CostCategory::KernelService, base);
    }

    fn charge_copy(&self, ctx: &mut KernelCtx<'_>, bytes: usize) {
        let c = ctx.hv.machine.cost().copy(bytes);
        ctx.hv.machine.charge(CostCategory::KernelService, c);
    }

    // ---- memory ----------------------------------------------------------

    /// `mmap`: anonymous, page-rounded, eagerly backed (the simulation has
    /// no lazy faults for ordinary processes).
    pub fn sys_mmap(
        &mut self,
        ctx: &mut KernelCtx<'_>,
        pid: Pid,
        len: usize,
    ) -> Result<u64, Errno> {
        self.charge_base(ctx);
        if len == 0 {
            return Err(Errno::EINVAL);
        }
        let pages = len.div_ceil(PAGE_SIZE);
        let aspace = self.ensure_aspace(ctx, pid)?;
        let frames = self.frames.alloc_n(pages).map_err(|_| Errno::ENOMEM)?;
        self.refill_pt_pool(pages / 512 + 4).map_err(|_| Errno::ENOMEM)?;
        let base = self.process(pid)?.mmap_cursor;
        for (i, gfn) in frames.iter().enumerate() {
            // Zero fresh pages before handing them to user space.
            ctx.hv
                .machine
                .write(self.vmpl, gpa_of(*gfn), &[0u8; PAGE_SIZE])
                .map_err(|_| Errno::EFAULT)?;
            let touch =
                ctx.hv.machine.cost().page_touch + ctx.hv.machine.cost().copy(PAGE_SIZE / 2);
            ctx.hv.machine.charge(CostCategory::KernelService, touch);
            aspace
                .map(
                    &mut ctx.hv.machine,
                    self.vmpl,
                    &mut self.pt_free,
                    base + (i * PAGE_SIZE) as u64,
                    *gfn,
                    PteFlags::user_data(),
                )
                .map_err(|_| Errno::ENOMEM)?;
        }
        let proc = self.process_mut(pid)?;
        proc.mmap_cursor += (pages * PAGE_SIZE) as u64 + PAGE_SIZE as u64; // guard gap
        proc.mmaps.insert(base, MmapRegion { len: pages * PAGE_SIZE, frames });
        // Enclave processes: mirror the new shared region into the
        // protected tables so the enclave can reach it (§6.2).
        if let Some(enclave_id) = self.process(pid)?.enclave_id {
            let req = MonRequest::EncMapSync {
                enclave_id,
                base_vaddr: base,
                pages: pages as u64,
                map: true,
            };
            if ctx.gate.request(ctx.hv, ctx.vcpu, req).is_err() {
                return Err(Errno::ENOMEM);
            }
        }
        self.audit_syscall(ctx, pid, Sysno::Mmap, base as i64);
        Ok(base)
    }

    /// `munmap` of a full region previously returned by [`Kernel::sys_mmap`].
    pub fn sys_munmap(
        &mut self,
        ctx: &mut KernelCtx<'_>,
        pid: Pid,
        addr: u64,
        len: usize,
    ) -> Result<(), Errno> {
        self.charge_base(ctx);
        let aspace = self.process(pid)?.aspace.ok_or(Errno::EINVAL)?;
        let region = self.process_mut(pid)?.mmaps.remove(&addr).ok_or(Errno::EINVAL)?;
        // TLB shootdown per unmapped page.
        let tlb = 2000 * (len.div_ceil(PAGE_SIZE) as u64);
        ctx.hv.machine.charge(CostCategory::KernelService, tlb);
        if len.div_ceil(PAGE_SIZE) * PAGE_SIZE != region.len {
            // Partial unmap unsupported: restore and fail.
            self.process_mut(pid)?.mmaps.insert(addr, region);
            return Err(Errno::EINVAL);
        }
        // Enclave processes: remove the region from the protected tables
        // first so the enclave cannot reach freed frames.
        if let Some(enclave_id) = self.process(pid)?.enclave_id {
            let req = MonRequest::EncMapSync {
                enclave_id,
                base_vaddr: addr,
                pages: (region.len / PAGE_SIZE) as u64,
                map: false,
            };
            // Revocations never ride the batched path: the clone mapping
            // must be gone before the frames return to the pool, or the
            // enclave could reach recycled memory through a stale entry.
            let _ = ctx.gate.request(ctx.hv, ctx.vcpu, req);
        }
        for (i, gfn) in region.frames.iter().enumerate() {
            aspace
                .unmap(&mut ctx.hv.machine, self.vmpl, addr + (i * PAGE_SIZE) as u64)
                .map_err(|_| Errno::EFAULT)?;
            self.frames.free(*gfn);
        }
        self.audit_syscall(ctx, pid, Sysno::Munmap, 0);
        Ok(())
    }

    /// `mprotect` over a whole mmap region. Enclave-region permission
    /// changes are *not* the kernel's to make — the caller (SDK) routes
    /// those to VeilS-ENC; the kernel path also synchronizes non-enclave
    /// changes into the protected tables via `EncPermSync` when the
    /// process has an enclave (§6.2).
    pub fn sys_mprotect(
        &mut self,
        ctx: &mut KernelCtx<'_>,
        pid: Pid,
        addr: u64,
        len: usize,
        prot_write: bool,
    ) -> Result<(), Errno> {
        self.charge_base(ctx);
        let aspace = self.process(pid)?.aspace.ok_or(Errno::EINVAL)?;
        let region_exists = self.process(pid)?.mmaps.contains_key(&addr);
        if !region_exists {
            return Err(Errno::EINVAL);
        }
        let flags = if prot_write { PteFlags::user_data() } else { PteFlags::user_ro() };
        let pages = len.div_ceil(PAGE_SIZE);
        for i in 0..pages {
            let va = addr + (i * PAGE_SIZE) as u64;
            aspace.protect(&mut ctx.hv.machine, self.vmpl, va, flags).map_err(|_| Errno::EFAULT)?;
            if let Some(enclave_id) = self.process(pid)?.enclave_id {
                let req =
                    MonRequest::EncPermSync { enclave_id, vaddr: va, pte_flags: flags.bits() };
                if ctx.gate.request(ctx.hv, ctx.vcpu, req).is_err() {
                    return Err(Errno::EACCES);
                }
            }
        }
        self.audit_syscall(ctx, pid, Sysno::Mprotect, 0);
        Ok(())
    }

    /// Process-memory write through the process page tables (CPL-3 rules).
    pub fn proc_mem_write(
        &mut self,
        ctx: &mut KernelCtx<'_>,
        pid: Pid,
        addr: u64,
        data: &[u8],
    ) -> Result<(), Errno> {
        self.charge_copy(ctx, data.len());
        let aspace = self.process(pid)?.aspace.ok_or(Errno::EFAULT)?;
        aspace
            .write_virt(&mut ctx.hv.machine, addr, data, self.vmpl, Cpl::Cpl3)
            .map_err(|_| Errno::EFAULT)
    }

    /// Process-memory read through the process page tables.
    pub fn proc_mem_read(
        &mut self,
        ctx: &mut KernelCtx<'_>,
        pid: Pid,
        addr: u64,
        buf: &mut [u8],
    ) -> Result<(), Errno> {
        self.charge_copy(ctx, buf.len());
        let aspace = self.process(pid)?.aspace.ok_or(Errno::EFAULT)?;
        aspace
            .read_virt_into(&ctx.hv.machine, addr, buf, self.vmpl, Cpl::Cpl3)
            .map_err(|_| Errno::EFAULT)
    }

    // ---- files -----------------------------------------------------------

    /// `open`/`creat`.
    pub fn sys_open(
        &mut self,
        ctx: &mut KernelCtx<'_>,
        pid: Pid,
        path: &str,
        flags: OpenFlags,
    ) -> Result<Fd, Errno> {
        self.charge_base(ctx);
        // Path resolution walks the dcache: per-component hashing plus
        // inode lookups (calibrated against Fig. 4's open ratio).
        self.charge_copy(ctx, path.len());
        ctx.hv.machine.charge(CostCategory::KernelService, 1200);
        let result = (|| {
            let ino = match self.vfs.resolve(path) {
                Ok(ino) => {
                    if flags.truncate {
                        self.vfs.truncate(ino, 0)?;
                    }
                    ino
                }
                Err(Errno::ENOENT) if flags.create => self.vfs.create(path, 0o644)?,
                Err(e) => return Err(e),
            };
            if self.vfs.inode(ino)?.is_dir() && flags.write {
                return Err(Errno::EISDIR);
            }
            let entry =
                FdEntry::File { ino, offset: 0, writable: flags.write, append: flags.append };
            Ok(self.process_mut(pid)?.install_fd(entry))
        })();
        let ret = match &result {
            Ok(fd) => *fd as i64,
            Err(e) => e.as_neg_ret(),
        };
        self.audit_syscall(ctx, pid, Sysno::Open, ret);
        result
    }

    /// `close`.
    pub fn sys_close(&mut self, ctx: &mut KernelCtx<'_>, pid: Pid, fd: Fd) -> Result<(), Errno> {
        self.charge_base(ctx);
        let entry = self.process_mut(pid)?.remove_fd(fd)?;
        if let FdEntry::Socket(sid) = entry {
            let _ = self.sockets.close(sid);
        }
        self.audit_syscall(ctx, pid, Sysno::Close, 0);
        Ok(())
    }

    /// `read` (files, sockets, console).
    pub fn sys_read(
        &mut self,
        ctx: &mut KernelCtx<'_>,
        pid: Pid,
        fd: Fd,
        buf: &mut [u8],
    ) -> Result<usize, Errno> {
        self.charge_base(ctx);
        self.charge_copy(ctx, buf.len());
        let result = (|| {
            let entry = self.process_mut(pid)?.fd_mut(fd)?.clone();
            match entry {
                FdEntry::File { ino, offset, .. } => {
                    let n = self.vfs.read_at(ino, offset, buf)?;
                    if let FdEntry::File { offset, .. } = self.process_mut(pid)?.fd_mut(fd)? {
                        *offset += n;
                    }
                    Ok(n)
                }
                FdEntry::Socket(sid) => self.sockets.recv(sid, buf),
                FdEntry::Console => Ok(0),
            }
        })();
        let ret = match &result {
            Ok(n) => *n as i64,
            Err(e) => e.as_neg_ret(),
        };
        self.audit_syscall(ctx, pid, Sysno::Read, ret);
        result
    }

    /// `write`.
    pub fn sys_write(
        &mut self,
        ctx: &mut KernelCtx<'_>,
        pid: Pid,
        fd: Fd,
        buf: &[u8],
    ) -> Result<usize, Errno> {
        self.charge_base(ctx);
        self.charge_copy(ctx, buf.len());
        let result = (|| {
            let entry = self.process_mut(pid)?.fd_mut(fd)?.clone();
            match entry {
                FdEntry::File { ino, offset, writable, append } => {
                    if !writable {
                        return Err(Errno::EBADF);
                    }
                    let at = if append { self.vfs.inode(ino)?.size() } else { offset };
                    let n = self.vfs.write_at(ino, at, buf)?;
                    if let FdEntry::File { offset, .. } = self.process_mut(pid)?.fd_mut(fd)? {
                        *offset = at + n;
                    }
                    Ok(n)
                }
                FdEntry::Socket(sid) => self.sockets.send(sid, buf),
                FdEntry::Console => {
                    self.console.extend_from_slice(buf);
                    Ok(buf.len())
                }
            }
        })();
        let ret = match &result {
            Ok(n) => *n as i64,
            Err(e) => e.as_neg_ret(),
        };
        self.audit_syscall(ctx, pid, Sysno::Write, ret);
        result
    }

    /// `pread64`.
    pub fn sys_pread(
        &mut self,
        ctx: &mut KernelCtx<'_>,
        pid: Pid,
        fd: Fd,
        buf: &mut [u8],
        offset: u64,
    ) -> Result<usize, Errno> {
        self.charge_base(ctx);
        self.charge_copy(ctx, buf.len());
        let result = (|| {
            let entry = self.process(pid)?.fd(fd)?.clone();
            match entry {
                FdEntry::File { ino, .. } => self.vfs.read_at(ino, offset as usize, buf),
                _ => Err(Errno::ESPIPE),
            }
        })();
        let ret = match &result {
            Ok(n) => *n as i64,
            Err(e) => e.as_neg_ret(),
        };
        self.audit_syscall(ctx, pid, Sysno::Pread64, ret);
        result
    }

    /// `pwrite64`.
    pub fn sys_pwrite(
        &mut self,
        ctx: &mut KernelCtx<'_>,
        pid: Pid,
        fd: Fd,
        buf: &[u8],
        offset: u64,
    ) -> Result<usize, Errno> {
        self.charge_base(ctx);
        self.charge_copy(ctx, buf.len());
        let result = (|| {
            let entry = self.process(pid)?.fd(fd)?.clone();
            match entry {
                FdEntry::File { ino, writable, .. } => {
                    if !writable {
                        return Err(Errno::EBADF);
                    }
                    self.vfs.write_at(ino, offset as usize, buf)
                }
                _ => Err(Errno::ESPIPE),
            }
        })();
        let ret = match &result {
            Ok(n) => *n as i64,
            Err(e) => e.as_neg_ret(),
        };
        self.audit_syscall(ctx, pid, Sysno::Pwrite64, ret);
        result
    }

    /// `lseek`.
    pub fn sys_lseek(
        &mut self,
        ctx: &mut KernelCtx<'_>,
        pid: Pid,
        fd: Fd,
        offset: i64,
        whence: Whence,
    ) -> Result<u64, Errno> {
        self.charge_base(ctx);
        let size = {
            let entry = self.process(pid)?.fd(fd)?;
            match entry {
                FdEntry::File { ino, .. } => self.vfs.inode(*ino)?.size() as i64,
                _ => return Err(Errno::ESPIPE),
            }
        };
        let entry = self.process_mut(pid)?.fd_mut(fd)?;
        if let FdEntry::File { offset: cur, .. } = entry {
            let base = match whence {
                Whence::Set => 0,
                Whence::Cur => *cur as i64,
                Whence::End => size,
            };
            let new = base + offset;
            if new < 0 {
                return Err(Errno::EINVAL);
            }
            *cur = new as usize;
            Ok(new as u64)
        } else {
            Err(Errno::ESPIPE)
        }
    }

    /// `stat`.
    pub fn sys_stat(
        &mut self,
        ctx: &mut KernelCtx<'_>,
        pid: Pid,
        path: &str,
    ) -> Result<SysStat, Errno> {
        self.charge_base(ctx);
        let _ = pid;
        let ino = self.vfs.resolve(path)?;
        let node = self.vfs.inode(ino)?;
        Ok(SysStat {
            size: node.size() as u64,
            mode: node.mode,
            nlink: node.nlink,
            is_dir: node.is_dir(),
        })
    }

    /// `fstat`.
    pub fn sys_fstat(
        &mut self,
        ctx: &mut KernelCtx<'_>,
        pid: Pid,
        fd: Fd,
    ) -> Result<SysStat, Errno> {
        self.charge_base(ctx);
        let entry = self.process(pid)?.fd(fd)?.clone();
        match entry {
            FdEntry::File { ino, .. } => {
                let node = self.vfs.inode(ino)?;
                Ok(SysStat {
                    size: node.size() as u64,
                    mode: node.mode,
                    nlink: node.nlink,
                    is_dir: node.is_dir(),
                })
            }
            _ => Ok(SysStat { size: 0, mode: 0o666, nlink: 1, is_dir: false }),
        }
    }

    /// `sendfile`: in-kernel copy between descriptors.
    pub fn sys_sendfile(
        &mut self,
        ctx: &mut KernelCtx<'_>,
        pid: Pid,
        out_fd: Fd,
        in_fd: Fd,
        len: usize,
    ) -> Result<usize, Errno> {
        self.charge_base(ctx);
        self.charge_copy(ctx, len);
        let result = (|| {
            let mut data = vec![0u8; len];
            let n = match self.process_mut(pid)?.fd_mut(in_fd)?.clone() {
                FdEntry::File { ino, offset, .. } => {
                    let n = self.vfs.read_at(ino, offset, &mut data)?;
                    if let FdEntry::File { offset, .. } = self.process_mut(pid)?.fd_mut(in_fd)? {
                        *offset += n;
                    }
                    n
                }
                _ => return Err(Errno::EINVAL),
            };
            data.truncate(n);
            match self.process_mut(pid)?.fd_mut(out_fd)?.clone() {
                FdEntry::Socket(sid) => self.sockets.send(sid, &data),
                FdEntry::File { ino, offset, writable, .. } => {
                    if !writable {
                        return Err(Errno::EBADF);
                    }
                    let n = self.vfs.write_at(ino, offset, &data)?;
                    if let FdEntry::File { offset, .. } = self.process_mut(pid)?.fd_mut(out_fd)? {
                        *offset += n;
                    }
                    Ok(n)
                }
                FdEntry::Console => {
                    self.console.extend_from_slice(&data);
                    Ok(data.len())
                }
            }
        })();
        let ret = match &result {
            Ok(n) => *n as i64,
            Err(e) => e.as_neg_ret(),
        };
        self.audit_syscall(ctx, pid, Sysno::Sendfile, ret);
        result
    }

    // ---- sockets -----------------------------------------------------------

    /// `socket`.
    pub fn sys_socket(&mut self, ctx: &mut KernelCtx<'_>, pid: Pid) -> Result<Fd, Errno> {
        self.charge_base(ctx);
        // Socket buffer allocation + protocol setup.
        ctx.hv.machine.charge(CostCategory::KernelService, 600);
        let sid = self.sockets.socket();
        let fd = self.process_mut(pid)?.install_fd(FdEntry::Socket(sid));
        self.audit_syscall(ctx, pid, Sysno::Socket, fd as i64);
        Ok(fd)
    }

    fn sock_of(&self, pid: Pid, fd: Fd) -> Result<usize, Errno> {
        match self.process(pid)?.fd(fd)? {
            FdEntry::Socket(sid) => Ok(*sid),
            _ => Err(Errno::EBADF),
        }
    }

    /// `bind`.
    pub fn sys_bind(
        &mut self,
        ctx: &mut KernelCtx<'_>,
        pid: Pid,
        fd: Fd,
        port: u16,
    ) -> Result<(), Errno> {
        self.charge_base(ctx);
        let sid = self.sock_of(pid, fd)?;
        let result = self.sockets.bind(sid, port);
        let ret = result.map(|_| 0i64).unwrap_or_else(|e| e.as_neg_ret());
        self.audit_syscall(ctx, pid, Sysno::Bind, ret);
        result
    }

    /// `listen`.
    pub fn sys_listen(&mut self, ctx: &mut KernelCtx<'_>, pid: Pid, fd: Fd) -> Result<(), Errno> {
        self.charge_base(ctx);
        let sid = self.sock_of(pid, fd)?;
        self.sockets.listen(sid)
    }

    /// `accept`.
    pub fn sys_accept(&mut self, ctx: &mut KernelCtx<'_>, pid: Pid, fd: Fd) -> Result<Fd, Errno> {
        self.charge_base(ctx);
        let sid = self.sock_of(pid, fd)?;
        let result = self.sockets.accept(sid).map(|conn| {
            self.process_mut(pid).expect("caller checked").install_fd(FdEntry::Socket(conn))
        });
        let ret = match &result {
            Ok(fd) => *fd as i64,
            Err(e) => e.as_neg_ret(),
        };
        self.audit_syscall(ctx, pid, Sysno::Accept, ret);
        result
    }

    /// `connect`.
    pub fn sys_connect(
        &mut self,
        ctx: &mut KernelCtx<'_>,
        pid: Pid,
        fd: Fd,
        port: u16,
    ) -> Result<(), Errno> {
        self.charge_base(ctx);
        let sid = self.sock_of(pid, fd)?;
        let result = self.sockets.connect(sid, port);
        let ret = result.map(|_| 0i64).unwrap_or_else(|e| e.as_neg_ret());
        self.audit_syscall(ctx, pid, Sysno::Connect, ret);
        result
    }

    /// `send`.
    pub fn sys_send(
        &mut self,
        ctx: &mut KernelCtx<'_>,
        pid: Pid,
        fd: Fd,
        data: &[u8],
    ) -> Result<usize, Errno> {
        self.charge_base(ctx);
        self.charge_copy(ctx, data.len());
        let sid = self.sock_of(pid, fd)?;
        let result = self.sockets.send(sid, data);
        let ret = match &result {
            Ok(n) => *n as i64,
            Err(e) => e.as_neg_ret(),
        };
        self.audit_syscall(ctx, pid, Sysno::Sendto, ret);
        result
    }

    /// `recv`.
    pub fn sys_recv(
        &mut self,
        ctx: &mut KernelCtx<'_>,
        pid: Pid,
        fd: Fd,
        buf: &mut [u8],
    ) -> Result<usize, Errno> {
        self.charge_base(ctx);
        self.charge_copy(ctx, buf.len());
        let sid = self.sock_of(pid, fd)?;
        let result = self.sockets.recv(sid, buf);
        let ret = match &result {
            Ok(n) => *n as i64,
            Err(e) => e.as_neg_ret(),
        };
        self.audit_syscall(ctx, pid, Sysno::Recvfrom, ret);
        result
    }

    /// `socketpair`.
    pub fn sys_socketpair(&mut self, ctx: &mut KernelCtx<'_>, pid: Pid) -> Result<(Fd, Fd), Errno> {
        self.charge_base(ctx);
        let (a, b) = self.sockets.socketpair();
        let proc = self.process_mut(pid)?;
        let fa = proc.install_fd(FdEntry::Socket(a));
        let fb = proc.install_fd(FdEntry::Socket(b));
        self.audit_syscall(ctx, pid, Sysno::Socketpair, fa as i64);
        Ok((fa, fb))
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

    // ---- misc syscalls ---------------------------------------------------------

    /// `dup`.
    pub fn sys_dup(&mut self, ctx: &mut KernelCtx<'_>, pid: Pid, fd: Fd) -> Result<Fd, Errno> {
        self.charge_base(ctx);
        let entry = self.process(pid)?.fd(fd)?.clone();
        let new = self.process_mut(pid)?.install_fd(entry);
        self.audit_syscall(ctx, pid, Sysno::Dup, new as i64);
        Ok(new)
    }

    /// `dup2`.
    pub fn sys_dup2(
        &mut self,
        ctx: &mut KernelCtx<'_>,
        pid: Pid,
        fd: Fd,
        new_fd: Fd,
    ) -> Result<Fd, Errno> {
        self.charge_base(ctx);
        let entry = self.process(pid)?.fd(fd)?.clone();
        self.process_mut(pid)?.install_fd_at(new_fd, entry);
        self.audit_syscall(ctx, pid, Sysno::Dup2, new_fd as i64);
        Ok(new_fd)
    }

    /// `setuid`.
    pub fn sys_setuid(&mut self, ctx: &mut KernelCtx<'_>, pid: Pid, uid: u32) -> Result<(), Errno> {
        self.charge_base(ctx);
        self.process_mut(pid)?.uid = uid;
        self.audit_syscall(ctx, pid, Sysno::Setuid, 0);
        Ok(())
    }

    /// Simulated `fork` (for audit workloads): clones fd table only.
    pub fn sys_fork(&mut self, ctx: &mut KernelCtx<'_>, pid: Pid) -> Result<Pid, Errno> {
        self.charge_base(ctx);
        // Forking charges a page-table copy worth of work.
        let extra = ctx.hv.machine.cost().page_touch * 8;
        ctx.hv.machine.charge(CostCategory::KernelService, extra);
        let child_pid = self.next_pid;
        self.next_pid += 1;
        let parent = self.process(pid)?.clone();
        let mut child = Process::new(child_pid);
        child.fds = parent.fds.clone();
        child.uid = parent.uid;
        self.procs.insert(child_pid, child);
        self.audit_syscall(ctx, pid, Sysno::Fork, child_pid as i64);
        Ok(child_pid)
    }
}

/// [`Sys`] implementation backed directly by the kernel: the path a
/// native (non-enclave) process takes.
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

impl KernelSys<'_> {
    fn ctx(&mut self) -> (&mut Kernel, KernelCtx<'_>) {
        (self.kernel, KernelCtx { hv: self.hv, gate: self.gate, vcpu: self.vcpu })
    }
}

impl Sys for KernelSys<'_> {
    fn open(&mut self, path: &str, flags: OpenFlags) -> Result<Fd, Errno> {
        let pid = self.pid;
        let (k, mut ctx) = self.ctx();
        k.sys_open(&mut ctx, pid, path, flags)
    }

    fn close(&mut self, fd: Fd) -> Result<(), Errno> {
        let pid = self.pid;
        let (k, mut ctx) = self.ctx();
        k.sys_close(&mut ctx, pid, fd)
    }

    fn read(&mut self, fd: Fd, buf: &mut [u8]) -> Result<usize, Errno> {
        let pid = self.pid;
        let (k, mut ctx) = self.ctx();
        k.sys_read(&mut ctx, pid, fd, buf)
    }

    fn write(&mut self, fd: Fd, buf: &[u8]) -> Result<usize, Errno> {
        let pid = self.pid;
        let (k, mut ctx) = self.ctx();
        k.sys_write(&mut ctx, pid, fd, buf)
    }

    fn pread(&mut self, fd: Fd, buf: &mut [u8], offset: u64) -> Result<usize, Errno> {
        let pid = self.pid;
        let (k, mut ctx) = self.ctx();
        k.sys_pread(&mut ctx, pid, fd, buf, offset)
    }

    fn pwrite(&mut self, fd: Fd, buf: &[u8], offset: u64) -> Result<usize, Errno> {
        let pid = self.pid;
        let (k, mut ctx) = self.ctx();
        k.sys_pwrite(&mut ctx, pid, fd, buf, offset)
    }

    fn lseek(&mut self, fd: Fd, offset: i64, whence: Whence) -> Result<u64, Errno> {
        let pid = self.pid;
        let (k, mut ctx) = self.ctx();
        k.sys_lseek(&mut ctx, pid, fd, offset, whence)
    }

    fn stat(&mut self, path: &str) -> Result<SysStat, Errno> {
        let pid = self.pid;
        let (k, mut ctx) = self.ctx();
        k.sys_stat(&mut ctx, pid, path)
    }

    fn fstat(&mut self, fd: Fd) -> Result<SysStat, Errno> {
        let pid = self.pid;
        let (k, mut ctx) = self.ctx();
        k.sys_fstat(&mut ctx, pid, fd)
    }

    fn mkdir(&mut self, path: &str) -> Result<(), Errno> {
        let pid = self.pid;
        let (k, mut ctx) = self.ctx();
        k.charge_base(&mut ctx);
        let r = k.vfs.mkdir(path, 0o755).map(|_| ());
        let ret = r.map(|_| 0i64).unwrap_or_else(|e| e.as_neg_ret());
        k.audit_syscall(&mut ctx, pid, Sysno::Mkdir, ret);
        r
    }

    fn rmdir(&mut self, path: &str) -> Result<(), Errno> {
        let pid = self.pid;
        let (k, mut ctx) = self.ctx();
        k.charge_base(&mut ctx);
        let r = k.vfs.rmdir(path);
        let ret = r.map(|_| 0i64).unwrap_or_else(|e| e.as_neg_ret());
        k.audit_syscall(&mut ctx, pid, Sysno::Rmdir, ret);
        r
    }

    fn unlink(&mut self, path: &str) -> Result<(), Errno> {
        let pid = self.pid;
        let (k, mut ctx) = self.ctx();
        k.charge_base(&mut ctx);
        let r = k.vfs.unlink(path);
        let ret = r.map(|_| 0i64).unwrap_or_else(|e| e.as_neg_ret());
        k.audit_syscall(&mut ctx, pid, Sysno::Unlink, ret);
        r
    }

    fn rename(&mut self, from: &str, to: &str) -> Result<(), Errno> {
        let pid = self.pid;
        let (k, mut ctx) = self.ctx();
        k.charge_base(&mut ctx);
        let r = k.vfs.rename(from, to);
        let ret = r.map(|_| 0i64).unwrap_or_else(|e| e.as_neg_ret());
        k.audit_syscall(&mut ctx, pid, Sysno::Rename, ret);
        r
    }

    fn link(&mut self, existing: &str, new_path: &str) -> Result<(), Errno> {
        let pid = self.pid;
        let (k, mut ctx) = self.ctx();
        k.charge_base(&mut ctx);
        let r = k.vfs.link(existing, new_path);
        let ret = r.map(|_| 0i64).unwrap_or_else(|e| e.as_neg_ret());
        k.audit_syscall(&mut ctx, pid, Sysno::Link, ret);
        r
    }

    fn symlink(&mut self, target: &str, link_path: &str) -> Result<(), Errno> {
        let pid = self.pid;
        let (k, mut ctx) = self.ctx();
        k.charge_base(&mut ctx);
        let r = k.vfs.symlink(link_path, target).map(|_| ());
        let ret = r.map(|_| 0i64).unwrap_or_else(|e| e.as_neg_ret());
        k.audit_syscall(&mut ctx, pid, Sysno::Symlink, ret);
        r
    }

    fn ftruncate(&mut self, fd: Fd, len: u64) -> Result<(), Errno> {
        let pid = self.pid;
        let (k, mut ctx) = self.ctx();
        k.charge_base(&mut ctx);
        let entry = k.process(pid)?.fd(fd)?.clone();
        let r = match entry {
            FdEntry::File { ino, writable, .. } => {
                if !writable {
                    Err(Errno::EBADF)
                } else {
                    k.vfs.truncate(ino, len as usize)
                }
            }
            _ => Err(Errno::EINVAL),
        };
        let ret = r.map(|_| 0i64).unwrap_or_else(|e| e.as_neg_ret());
        k.audit_syscall(&mut ctx, pid, Sysno::Ftruncate, ret);
        r
    }

    fn chmod(&mut self, path: &str, mode: u32) -> Result<(), Errno> {
        let pid = self.pid;
        let (k, mut ctx) = self.ctx();
        k.charge_base(&mut ctx);
        let r = k.vfs.resolve(path).and_then(|ino| k.vfs.chmod(ino, mode));
        let ret = r.map(|_| 0i64).unwrap_or_else(|e| e.as_neg_ret());
        k.audit_syscall(&mut ctx, pid, Sysno::Chmod, ret);
        r
    }

    fn fchmod(&mut self, fd: Fd, mode: u32) -> Result<(), Errno> {
        let pid = self.pid;
        let (k, mut ctx) = self.ctx();
        k.charge_base(&mut ctx);
        let entry = k.process(pid)?.fd(fd)?.clone();
        let r = match entry {
            FdEntry::File { ino, .. } => k.vfs.chmod(ino, mode),
            _ => Err(Errno::EINVAL),
        };
        let ret = r.map(|_| 0i64).unwrap_or_else(|e| e.as_neg_ret());
        k.audit_syscall(&mut ctx, pid, Sysno::Fchmod, ret);
        r
    }

    fn getdents(&mut self, fd: Fd) -> Result<Vec<String>, Errno> {
        let pid = self.pid;
        let (k, mut ctx) = self.ctx();
        k.charge_base(&mut ctx);
        let entry = k.process(pid)?.fd(fd)?.clone();
        match entry {
            FdEntry::File { ino, .. } => k.vfs.readdir(ino),
            _ => Err(Errno::ENOTDIR),
        }
    }

    fn mmap(&mut self, len: usize) -> Result<u64, Errno> {
        let pid = self.pid;
        let (k, mut ctx) = self.ctx();
        k.sys_mmap(&mut ctx, pid, len)
    }

    fn munmap(&mut self, addr: u64, len: usize) -> Result<(), Errno> {
        let pid = self.pid;
        let (k, mut ctx) = self.ctx();
        k.sys_munmap(&mut ctx, pid, addr, len)
    }

    fn mprotect(&mut self, addr: u64, len: usize, prot_write: bool) -> Result<(), Errno> {
        let pid = self.pid;
        let (k, mut ctx) = self.ctx();
        k.sys_mprotect(&mut ctx, pid, addr, len, prot_write)
    }

    fn mem_write(&mut self, addr: u64, data: &[u8]) -> Result<(), Errno> {
        let pid = self.pid;
        let (k, mut ctx) = self.ctx();
        k.proc_mem_write(&mut ctx, pid, addr, data)
    }

    fn mem_read(&mut self, addr: u64, buf: &mut [u8]) -> Result<(), Errno> {
        let pid = self.pid;
        let (k, mut ctx) = self.ctx();
        k.proc_mem_read(&mut ctx, pid, addr, buf)
    }

    fn socket(&mut self) -> Result<Fd, Errno> {
        let pid = self.pid;
        let (k, mut ctx) = self.ctx();
        k.sys_socket(&mut ctx, pid)
    }

    fn bind(&mut self, fd: Fd, port: u16) -> Result<(), Errno> {
        let pid = self.pid;
        let (k, mut ctx) = self.ctx();
        k.sys_bind(&mut ctx, pid, fd, port)
    }

    fn listen(&mut self, fd: Fd) -> Result<(), Errno> {
        let pid = self.pid;
        let (k, mut ctx) = self.ctx();
        k.sys_listen(&mut ctx, pid, fd)
    }

    fn accept(&mut self, fd: Fd) -> Result<Fd, Errno> {
        let pid = self.pid;
        let (k, mut ctx) = self.ctx();
        k.sys_accept(&mut ctx, pid, fd)
    }

    fn connect(&mut self, fd: Fd, port: u16) -> Result<(), Errno> {
        let pid = self.pid;
        let (k, mut ctx) = self.ctx();
        k.sys_connect(&mut ctx, pid, fd, port)
    }

    fn send(&mut self, fd: Fd, data: &[u8]) -> Result<usize, Errno> {
        let pid = self.pid;
        let (k, mut ctx) = self.ctx();
        k.sys_send(&mut ctx, pid, fd, data)
    }

    fn recv(&mut self, fd: Fd, buf: &mut [u8]) -> Result<usize, Errno> {
        let pid = self.pid;
        let (k, mut ctx) = self.ctx();
        k.sys_recv(&mut ctx, pid, fd, buf)
    }

    fn socketpair(&mut self) -> Result<(Fd, Fd), Errno> {
        let pid = self.pid;
        let (k, mut ctx) = self.ctx();
        k.sys_socketpair(&mut ctx, pid)
    }

    fn dup(&mut self, fd: Fd) -> Result<Fd, Errno> {
        let pid = self.pid;
        let (k, mut ctx) = self.ctx();
        k.sys_dup(&mut ctx, pid, fd)
    }

    fn dup2(&mut self, fd: Fd, new_fd: Fd) -> Result<Fd, Errno> {
        let pid = self.pid;
        let (k, mut ctx) = self.ctx();
        k.sys_dup2(&mut ctx, pid, fd, new_fd)
    }

    fn getpid(&mut self) -> Result<u32, Errno> {
        let pid = self.pid;
        let (k, mut ctx) = self.ctx();
        k.charge_base(&mut ctx);
        Ok(pid)
    }

    fn getuid(&mut self) -> Result<u32, Errno> {
        let pid = self.pid;
        let (k, mut ctx) = self.ctx();
        k.charge_base(&mut ctx);
        Ok(k.process(pid)?.uid)
    }

    fn setuid(&mut self, uid: u32) -> Result<(), Errno> {
        let pid = self.pid;
        let (k, mut ctx) = self.ctx();
        k.sys_setuid(&mut ctx, pid, uid)
    }

    fn print(&mut self, msg: &str) -> Result<usize, Errno> {
        self.write(1, msg.as_bytes())
    }

    fn clock_gettime(&mut self) -> Result<u64, Errno> {
        let (k, mut ctx) = self.ctx();
        k.charge_base(&mut ctx);
        let cycles = ctx.hv.machine.cycles().total();
        Ok(cycles.saturating_mul(1_000_000_000) / CLOCK_HZ)
    }

    fn sendfile(&mut self, out_fd: Fd, in_fd: Fd, len: usize) -> Result<usize, Errno> {
        let pid = self.pid;
        let (k, mut ctx) = self.ctx();
        k.sys_sendfile(&mut ctx, pid, out_fd, in_fd, len)
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
    fn fork_clones_fds_and_audits() {
        let (mut hv, mut gate, mut kernel) = native();
        kernel.audit.mode = AuditMode::Kaudit;
        kernel.audit.rules = crate::audit::paper_ruleset();
        let pid = kernel.spawn();
        let child = {
            let mut ctx = KernelCtx { hv: &mut hv, gate: &mut gate, vcpu: 0 };
            let fd = kernel.sys_open(&mut ctx, pid, "/tmp/f", OpenFlags::rdwr_create()).unwrap();
            let child = kernel.sys_fork(&mut ctx, pid).unwrap();
            assert!(kernel.process(child).unwrap().fds.contains_key(&fd));
            child
        };
        assert_ne!(child, pid);
        assert!(kernel.audit.kaudit_log.iter().any(|r| r.sysno == Sysno::Fork));
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
