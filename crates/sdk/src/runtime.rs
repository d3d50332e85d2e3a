//! The enclave runtime: entry/exit and the syscall-redirection engine.
//!
//! [`EnclaveSys`] implements [`Sys`] for code running *inside* an
//! enclave. Every call follows §6.2's redirection protocol, with each
//! step modelled in real guest memory:
//!
//! 1. the sanitizer checks the call spec ([`crate::spec`]) that the call
//!    is supported, and the call's redirect helper deep-copies
//!    in-arguments from enclave memory into the shared application
//!    buffer, *through the enclave's protected page tables*;
//! 2. the enclave exits to `Dom_UNT` via its user-mapped GHCB;
//! 3. the untrusted application stub reads the staged arguments and
//!    performs the real syscall;
//! 4. results and out-buffers are staged back, the enclave re-enters,
//!    and the sanitizer copies them in — rejecting IAGO pointers that
//!    land inside the enclave range.

use crate::heap::HeapAllocator;
use crate::install::EnclaveHandle;
use crate::spec::{spec_for, STR_MAX};
use veil_os::error::Errno;
use veil_os::kernel::KernelSys;
use veil_os::sys::{Fd, OpenFlags, Sys, SysStat, Whence};
use veil_os::syscall::Sysno;
use veil_services::Cvm;
use veil_snp::cost::CostCategory;
use veil_snp::perms::{Cpl, Vmpl};
use veil_snp::pt::AddressSpace;
use veil_trace::Event;

/// Runtime statistics (drive the Fig. 4/5 harnesses).
#[derive(Debug, Clone, Copy, Default)]
pub struct RtStats {
    /// Syscalls redirected.
    pub syscalls: u64,
    /// Enclave boundary crossings (each syscall costs two).
    pub crossings: u64,
    /// Bytes deep-copied across the boundary.
    pub bytes_copied: u64,
    /// IAGO pointers rejected.
    pub iago_blocks: u64,
    /// Set when an unsupported syscall killed the enclave (§7).
    pub killed: bool,
}

/// Per-enclave runtime state held by the (trusted) enclave code.
#[derive(Debug)]
pub struct EnclaveRuntime {
    /// Installation handle.
    pub handle: EnclaveHandle,
    /// The in-enclave heap allocator.
    pub heap: HeapAllocator,
    /// Statistics.
    pub stats: RtStats,
    /// VCPU this thread runs on (primary thread: the install VCPU).
    pub vcpu: u32,
    /// This thread's user-mapped GHCB.
    pub ghcb_gfn: u64,
    /// Cursor into the shared staging buffer.
    stage_cursor: u64,
    inside: bool,
    /// Reusable untrusted-stub buffer so the redirect paths do not
    /// allocate per syscall.
    scratch: Vec<u8>,
}

/// Exits the enclave if it is currently inside — used by schedulers /
/// drivers that must run untrusted work between shielded sections.
///
/// # Errors
///
/// Hypervisor refusals surface as `EACCES`.
pub fn park_enclave(cvm: &mut Cvm, rt: &mut EnclaveRuntime) -> Result<(), Errno> {
    if rt.inside {
        let mut sys = EnclaveSys { cvm, rt };
        sys.exit()?;
    }
    Ok(())
}

impl EnclaveRuntime {
    /// Wraps an installed enclave (primary thread, VCPU 0).
    pub fn new(handle: EnclaveHandle) -> Self {
        let heap = HeapAllocator::new(handle.heap_base, handle.heap_len);
        let ghcb_gfn = handle.ghcb_gfn;
        EnclaveRuntime {
            handle,
            heap,
            stats: RtStats::default(),
            vcpu: 0,
            ghcb_gfn,
            stage_cursor: 0,
            inside: false,
            scratch: Vec::new(),
        }
    }

    /// Runtime for a secondary thread created with
    /// [`crate::install::add_enclave_thread`]. Threads share the enclave
    /// memory but carry their own GHCB, staging cursor, and statistics.
    pub fn for_thread(handle: EnclaveHandle, thread: crate::install::EnclaveThread) -> Self {
        let heap = HeapAllocator::new(handle.heap_base, handle.heap_len);
        EnclaveRuntime {
            handle,
            heap,
            stats: RtStats::default(),
            vcpu: thread.vcpu,
            ghcb_gfn: thread.ghcb_gfn,
            stage_cursor: 0,
            inside: false,
            scratch: Vec::new(),
        }
    }

    /// Whether execution is currently inside the enclave domain.
    pub fn inside(&self) -> bool {
        self.inside
    }
}

/// [`Sys`] for enclave-resident code.
pub struct EnclaveSys<'a> {
    /// The whole CVM (the runtime spans trusted and untrusted halves).
    pub cvm: &'a mut Cvm,
    /// The enclave's runtime state.
    pub rt: &'a mut EnclaveRuntime,
}

impl<'a> EnclaveSys<'a> {
    /// Binds the runtime to the CVM and enters the enclave.
    ///
    /// # Errors
    ///
    /// Entry failures (hypervisor refusal) surface as `EACCES`.
    pub fn activate(cvm: &'a mut Cvm, rt: &'a mut EnclaveRuntime) -> Result<Self, Errno> {
        let mut this = EnclaveSys { cvm, rt };
        if !this.rt.inside {
            this.enter()?;
        }
        Ok(this)
    }

    /// Leaves the enclave (end of the protected computation).
    ///
    /// # Errors
    ///
    /// Exit failures surface as `EACCES`.
    pub fn deactivate(mut self) -> Result<(), Errno> {
        if self.rt.inside {
            self.exit()?;
        }
        Ok(())
    }

    fn enter(&mut self) -> Result<(), Errno> {
        // "The OS automatically sets the GHCB MSR before scheduling an
        // enclave-running process" (§6.2).
        let vcpu = self.rt.vcpu;
        self.cvm.hv.machine.set_ghcb_msr(vcpu, self.rt.ghcb_gfn);
        self.cvm.hv.machine.span_enter("sdk.enclave_enter");
        let entered = self
            .cvm
            .gate
            .services
            .enc
            .enter_on(&mut self.cvm.hv, self.rt.handle.id, vcpu)
            .map_err(|_| Errno::EACCES);
        self.cvm.hv.machine.span_exit("sdk.enclave_enter");
        entered?;
        self.rt.inside = true;
        self.rt.stats.crossings += 1;
        Ok(())
    }

    fn exit(&mut self) -> Result<(), Errno> {
        let vcpu = self.rt.vcpu;
        self.cvm.hv.machine.span_enter("sdk.enclave_exit");
        let exited = self
            .cvm
            .gate
            .services
            .enc
            .exit_on(&mut self.cvm.hv, self.rt.handle.id, vcpu)
            .map_err(|_| Errno::EACCES);
        self.cvm.hv.machine.span_exit("sdk.enclave_exit");
        exited?;
        // Back in Dom_UNT: restore the kernel GHCB for OS work.
        let kernel_ghcb =
            self.cvm.kernel.ghcb_gfn(vcpu).or_else(|| self.cvm.kernel.ghcb_gfn(0)).expect("ghcb");
        self.cvm.hv.machine.set_ghcb_msr(vcpu, kernel_ghcb);
        self.rt.inside = false;
        self.rt.stats.crossings += 1;
        Ok(())
    }

    /// The enclave's protected address space. The untrusted OS may have
    /// destroyed the enclave (`EncDestroy`) at any point: then `EFAULT`.
    fn enclave_aspace(&self) -> Result<AddressSpace, Errno> {
        let enclave = self.cvm.gate.services.enc.enclave(self.rt.handle.id);
        enclave.map(|e| e.aspace).ok_or(Errno::EFAULT)
    }

    /// Charges and performs a copy from enclave-visible memory into the
    /// shared buffer (step 1). Returns the staged address.
    fn stage_in(&mut self, bytes: &[u8]) -> Result<u64, Errno> {
        let addr = self.reserve(bytes.len())?;
        let aspace = self.enclave_aspace()?;
        aspace
            .write_virt(&mut self.cvm.hv.machine, addr, bytes, Vmpl::Vmpl2, Cpl::Cpl3)
            .map_err(|_| Errno::EFAULT)?;
        let cost = self.cvm.hv.machine.cost().copy(bytes.len());
        self.cvm.hv.machine.charge(CostCategory::SyscallCopy, cost);
        self.rt.stats.bytes_copied += bytes.len() as u64;
        Ok(addr)
    }

    /// Reserves shared-buffer space for an out-parameter.
    fn reserve(&mut self, len: usize) -> Result<u64, Errno> {
        let aligned = (len as u64).div_ceil(8) * 8;
        if self.rt.stage_cursor + aligned > self.rt.handle.shared_len as u64 {
            // Staging buffer wraps per syscall; a single oversized call
            // cannot be redirected.
            return Err(Errno::ENOMEM);
        }
        let addr = self.rt.handle.shared_base + self.rt.stage_cursor;
        self.rt.stage_cursor += aligned;
        Ok(addr)
    }

    /// Copies an out-buffer back into the enclave (step 4). Reads straight
    /// into the caller's buffer — no intermediate allocation.
    fn copy_back(&mut self, staged: u64, buf: &mut [u8]) -> Result<(), Errno> {
        let aspace = self.enclave_aspace()?;
        aspace
            .read_virt_into(&self.cvm.hv.machine, staged, buf, Vmpl::Vmpl2, Cpl::Cpl3)
            .map_err(|_| Errno::EFAULT)?;
        let cost = self.cvm.hv.machine.cost().copy(buf.len());
        self.cvm.hv.machine.charge(CostCategory::SyscallCopy, cost);
        self.rt.stats.bytes_copied += buf.len() as u64;
        Ok(())
    }

    /// The untrusted application stub: reads staged bytes and runs the
    /// real syscall via the kernel. Returns the closure's result.
    fn untrusted<R>(&mut self, f: impl FnOnce(&mut KernelSys<'_>) -> R) -> R {
        let pid = self.rt.handle.pid;
        let vcpu = self.rt.vcpu;
        let mut ks = KernelSys {
            kernel: &mut self.cvm.kernel,
            hv: &mut self.cvm.hv,
            gate: &mut self.cvm.gate,
            vcpu,
            pid,
        };
        f(&mut ks)
    }

    /// Reads staged bytes from the *untrusted* side (the stub's view of
    /// the shared buffer, through the OS page tables).
    fn untrusted_read(&mut self, staged: u64, len: usize) -> Result<Vec<u8>, Errno> {
        let mut data = vec![0u8; len];
        self.untrusted_read_into(staged, &mut data)?;
        Ok(data)
    }

    /// Allocation-free variant of [`Self::untrusted_read`] for the hot
    /// redirect paths: reads straight into a caller-owned buffer.
    fn untrusted_read_into(&mut self, staged: u64, buf: &mut [u8]) -> Result<(), Errno> {
        let pid = self.rt.handle.pid;
        let aspace = self.cvm.kernel.process(pid)?.aspace.ok_or(Errno::EFAULT)?;
        aspace
            .read_virt_into(&self.cvm.hv.machine, staged, buf, self.cvm.kernel.vmpl, Cpl::Cpl3)
            .map_err(|_| Errno::EFAULT)?;
        let cost = self.cvm.hv.machine.cost().copy(buf.len());
        self.cvm.hv.machine.charge(CostCategory::SyscallCopy, cost);
        Ok(())
    }

    /// Writes result bytes from the untrusted side into the shared buffer.
    fn untrusted_write(&mut self, staged: u64, bytes: &[u8]) -> Result<(), Errno> {
        let pid = self.rt.handle.pid;
        let aspace = self.cvm.kernel.process(pid)?.aspace.ok_or(Errno::EFAULT)?;
        aspace
            .write_virt(&mut self.cvm.hv.machine, staged, bytes, self.cvm.kernel.vmpl, Cpl::Cpl3)
            .map_err(|_| Errno::EFAULT)?;
        let cost = self.cvm.hv.machine.cost().copy(bytes.len());
        self.cvm.hv.machine.charge(CostCategory::SyscallCopy, cost);
        Ok(())
    }

    /// Pre-flight: spec lookup; unsupported calls kill the enclave (§7).
    fn pre(&mut self, sysno: Sysno) -> Result<(), Errno> {
        if self.rt.stats.killed {
            return Err(Errno::EKEYREJECTED);
        }
        if spec_for(sysno).is_none() {
            self.rt.stats.killed = true;
            return Err(Errno::ENOSYS);
        }
        self.rt.stats.syscalls += 1;
        self.rt.stage_cursor = 0;
        self.cvm.hv.machine.trace_event(Event::SyscallRedirect {
            vcpu: self.rt.vcpu,
            pid: self.rt.handle.pid,
            sysno: sysno.num() as u32,
        });
        Ok(())
    }

    /// Runs a closure of untrusted-side work under a *single* exit pair —
    /// the primitive behind the §10 batching layer ([`crate::batch`]).
    ///
    /// # Errors
    ///
    /// `EKEYREJECTED` once the enclave has been killed; entry/exit errors
    /// surface as `EACCES`.
    pub fn run_batch(&mut self, f: impl FnOnce(&mut KernelSys<'_>)) -> Result<(), Errno> {
        if self.rt.stats.killed {
            return Err(Errno::EKEYREJECTED);
        }
        self.rt.stats.syscalls += 1;
        self.rt.stage_cursor = 0;
        self.exit()?;
        self.untrusted(f);
        self.enter()?;
        Ok(())
    }

    /// IAGO check for returned pointers: must not alias enclave memory.
    /// A range that runs past `u64::MAX` is refused too: its wrapped end
    /// would slip under the overlap test.
    fn check_untrusted_pointer(&mut self, addr: u64, len: usize) -> Result<(), Errno> {
        let e_start = self.rt.handle.base;
        let e_end = e_start + self.rt.handle.len as u64;
        let aliases = match addr.checked_add(len as u64) {
            Some(end) => addr < e_end && e_start < end,
            None => true,
        };
        if aliases {
            self.rt.stats.iago_blocks += 1;
            return Err(Errno::EFAULT);
        }
        Ok(())
    }

    /// A redirected call with one in-buffer (write/send/pwrite...).
    fn redirect_in(
        &mut self,
        sysno: Sysno,
        data: &[u8],
        f: impl FnOnce(&mut KernelSys<'_>, &[u8]) -> Result<usize, Errno>,
    ) -> Result<usize, Errno> {
        self.pre(sysno)?;
        let staged = self.stage_in(data)?;
        self.exit()?;
        // The untrusted stub reuses the runtime's scratch buffer instead
        // of allocating a fresh staging copy every syscall.
        let mut scratch = std::mem::take(&mut self.rt.scratch);
        scratch.clear();
        scratch.resize(data.len(), 0);
        let result = (|| {
            self.untrusted_read_into(staged, &mut scratch)?;
            self.untrusted(|ks| f(ks, &scratch))
        })();
        self.rt.scratch = scratch;
        self.enter()?;
        result
    }

    /// A redirected call with one out-buffer (read/recv/pread...).
    fn redirect_out(
        &mut self,
        sysno: Sysno,
        buf: &mut [u8],
        f: impl FnOnce(&mut KernelSys<'_>, &mut [u8]) -> Result<usize, Errno>,
    ) -> Result<usize, Errno> {
        self.pre(sysno)?;
        let staged = self.reserve(buf.len())?;
        self.exit()?;
        let mut scratch = std::mem::take(&mut self.rt.scratch);
        scratch.clear();
        scratch.resize(buf.len(), 0);
        let result = (|| {
            let n = self.untrusted(|ks| f(ks, &mut scratch))?;
            if n > buf.len() {
                // A lying kernel cannot trick the enclave into
                // overflowing its buffer.
                return Err(Errno::EFAULT);
            }
            self.untrusted_write(staged, &scratch[..n])?;
            Ok(n)
        })();
        self.rt.scratch = scratch;
        self.enter()?;
        let n = result?;
        if n > 0 {
            self.copy_back(staged, &mut buf[..n])?;
        }
        Ok(n)
    }

    /// A redirected call with only scalar arguments.
    fn redirect_scalar<R>(
        &mut self,
        sysno: Sysno,
        f: impl FnOnce(&mut KernelSys<'_>) -> Result<R, Errno>,
    ) -> Result<R, Errno> {
        self.pre(sysno)?;
        self.exit()?;
        let result = self.untrusted(f);
        self.enter()?;
        result
    }

    /// A redirected call with a path string argument.
    fn redirect_path<R>(
        &mut self,
        sysno: Sysno,
        path: &str,
        f: impl FnOnce(&mut KernelSys<'_>, &str) -> Result<R, Errno>,
    ) -> Result<R, Errno> {
        if path.len() > STR_MAX {
            return Err(Errno::ENAMETOOLONG);
        }
        self.pre(sysno)?;
        let staged = self.stage_in(path.as_bytes())?;
        self.exit()?;
        let result = (|| {
            let bytes = self.untrusted_read(staged, path.len())?;
            let s = String::from_utf8(bytes).map_err(|_| Errno::EINVAL)?;
            self.untrusted(|ks| f(ks, &s))
        })();
        self.enter()?;
        result
    }

    /// Two-path variant (rename/link/symlink).
    fn redirect_two_paths<R>(
        &mut self,
        sysno: Sysno,
        a: &str,
        b: &str,
        f: impl FnOnce(&mut KernelSys<'_>, &str, &str) -> Result<R, Errno>,
    ) -> Result<R, Errno> {
        self.pre(sysno)?;
        let sa = self.stage_in(a.as_bytes())?;
        let sb = self.stage_in(b.as_bytes())?;
        self.exit()?;
        let result = (|| {
            let ba = self.untrusted_read(sa, a.len())?;
            let bb = self.untrusted_read(sb, b.len())?;
            let (pa, pb) = (
                String::from_utf8(ba).map_err(|_| Errno::EINVAL)?,
                String::from_utf8(bb).map_err(|_| Errno::EINVAL)?,
            );
            self.untrusted(|ks| f(ks, &pa, &pb))
        })();
        self.enter()?;
        result
    }
}

impl Sys for EnclaveSys<'_> {
    fn open(&mut self, path: &str, flags: OpenFlags) -> Result<Fd, Errno> {
        self.redirect_path(Sysno::Open, path, |ks, p| ks.open(p, flags))
    }

    fn close(&mut self, fd: Fd) -> Result<(), Errno> {
        self.redirect_scalar(Sysno::Close, |ks| ks.close(fd))
    }

    fn read(&mut self, fd: Fd, buf: &mut [u8]) -> Result<usize, Errno> {
        self.redirect_out(Sysno::Read, buf, |ks, b| ks.read(fd, b))
    }

    fn write(&mut self, fd: Fd, buf: &[u8]) -> Result<usize, Errno> {
        self.redirect_in(Sysno::Write, buf, |ks, b| ks.write(fd, b))
    }

    fn pread(&mut self, fd: Fd, buf: &mut [u8], offset: u64) -> Result<usize, Errno> {
        self.redirect_out(Sysno::Pread64, buf, |ks, b| ks.pread(fd, b, offset))
    }

    fn pwrite(&mut self, fd: Fd, buf: &[u8], offset: u64) -> Result<usize, Errno> {
        self.redirect_in(Sysno::Pwrite64, buf, |ks, b| ks.pwrite(fd, b, offset))
    }

    fn lseek(&mut self, fd: Fd, offset: i64, whence: Whence) -> Result<u64, Errno> {
        self.redirect_scalar(Sysno::Lseek, |ks| ks.lseek(fd, offset, whence))
    }

    fn stat(&mut self, path: &str) -> Result<SysStat, Errno> {
        self.redirect_path(Sysno::Stat, path, |ks, p| ks.stat(p))
    }

    fn fstat(&mut self, fd: Fd) -> Result<SysStat, Errno> {
        self.redirect_scalar(Sysno::Fstat, |ks| ks.fstat(fd))
    }

    fn mkdir(&mut self, path: &str) -> Result<(), Errno> {
        self.redirect_path(Sysno::Mkdir, path, |ks, p| ks.mkdir(p))
    }

    fn rmdir(&mut self, path: &str) -> Result<(), Errno> {
        self.redirect_path(Sysno::Rmdir, path, |ks, p| ks.rmdir(p))
    }

    fn unlink(&mut self, path: &str) -> Result<(), Errno> {
        self.redirect_path(Sysno::Unlink, path, |ks, p| ks.unlink(p))
    }

    fn rename(&mut self, from: &str, to: &str) -> Result<(), Errno> {
        self.redirect_two_paths(Sysno::Rename, from, to, |ks, a, b| ks.rename(a, b))
    }

    fn link(&mut self, existing: &str, new_path: &str) -> Result<(), Errno> {
        self.redirect_two_paths(Sysno::Link, existing, new_path, |ks, a, b| ks.link(a, b))
    }

    fn symlink(&mut self, target: &str, link_path: &str) -> Result<(), Errno> {
        self.redirect_two_paths(Sysno::Symlink, target, link_path, |ks, a, b| ks.symlink(a, b))
    }

    fn ftruncate(&mut self, fd: Fd, len: u64) -> Result<(), Errno> {
        self.redirect_scalar(Sysno::Ftruncate, |ks| ks.ftruncate(fd, len))
    }

    fn chmod(&mut self, path: &str, mode: u32) -> Result<(), Errno> {
        self.redirect_path(Sysno::Chmod, path, |ks, p| ks.chmod(p, mode))
    }

    fn fchmod(&mut self, fd: Fd, mode: u32) -> Result<(), Errno> {
        self.redirect_scalar(Sysno::Fchmod, |ks| ks.fchmod(fd, mode))
    }

    fn getdents(&mut self, fd: Fd) -> Result<Vec<String>, Errno> {
        self.redirect_scalar(Sysno::Getdents, |ks| ks.getdents(fd))
    }

    fn mmap(&mut self, len: usize) -> Result<u64, Errno> {
        let addr = self.redirect_scalar(Sysno::Mmap, |ks| ks.mmap(len))?;
        // IAGO: the OS must hand back memory *outside* the enclave.
        self.check_untrusted_pointer(addr, len)?;
        Ok(addr)
    }

    fn munmap(&mut self, addr: u64, len: usize) -> Result<(), Errno> {
        self.redirect_scalar(Sysno::Munmap, |ks| ks.munmap(addr, len))
    }

    fn mprotect(&mut self, addr: u64, len: usize, prot_write: bool) -> Result<(), Errno> {
        // Enclave-region permission changes go to VeilS-ENC directly
        // (§6.2); this Sys surface only exposes non-enclave regions.
        if self.rt.handle.contains(addr) {
            return Err(Errno::EACCES);
        }
        self.redirect_scalar(Sysno::Mprotect, |ks| ks.mprotect(addr, len, prot_write))
    }

    fn mem_write(&mut self, addr: u64, data: &[u8]) -> Result<(), Errno> {
        // Direct enclave memory access through the protected tables.
        let aspace = self.enclave_aspace()?;
        aspace
            .write_virt(&mut self.cvm.hv.machine, addr, data, Vmpl::Vmpl2, Cpl::Cpl3)
            .map_err(|_| Errno::EFAULT)
    }

    fn mem_read(&mut self, addr: u64, buf: &mut [u8]) -> Result<(), Errno> {
        let aspace = self.enclave_aspace()?;
        aspace
            .read_virt_into(&self.cvm.hv.machine, addr, buf, Vmpl::Vmpl2, Cpl::Cpl3)
            .map_err(|_| Errno::EFAULT)
    }

    fn socket(&mut self) -> Result<Fd, Errno> {
        self.redirect_scalar(Sysno::Socket, |ks| ks.socket())
    }

    fn bind(&mut self, fd: Fd, port: u16) -> Result<(), Errno> {
        self.redirect_scalar(Sysno::Bind, |ks| ks.bind(fd, port))
    }

    fn listen(&mut self, fd: Fd) -> Result<(), Errno> {
        self.redirect_scalar(Sysno::Listen, |ks| ks.listen(fd))
    }

    fn accept(&mut self, fd: Fd) -> Result<Fd, Errno> {
        self.redirect_scalar(Sysno::Accept, |ks| ks.accept(fd))
    }

    fn connect(&mut self, fd: Fd, port: u16) -> Result<(), Errno> {
        self.redirect_scalar(Sysno::Connect, |ks| ks.connect(fd, port))
    }

    fn send(&mut self, fd: Fd, data: &[u8]) -> Result<usize, Errno> {
        self.redirect_in(Sysno::Sendto, data, |ks, b| ks.send(fd, b))
    }

    fn recv(&mut self, fd: Fd, buf: &mut [u8]) -> Result<usize, Errno> {
        self.redirect_out(Sysno::Recvfrom, buf, |ks, b| ks.recv(fd, b))
    }

    fn socketpair(&mut self) -> Result<(Fd, Fd), Errno> {
        self.redirect_scalar(Sysno::Socketpair, |ks| ks.socketpair())
    }

    fn dup(&mut self, fd: Fd) -> Result<Fd, Errno> {
        self.redirect_scalar(Sysno::Dup, |ks| ks.dup(fd))
    }

    fn dup2(&mut self, fd: Fd, new_fd: Fd) -> Result<Fd, Errno> {
        self.redirect_scalar(Sysno::Dup2, |ks| ks.dup2(fd, new_fd))
    }

    fn getpid(&mut self) -> Result<u32, Errno> {
        self.redirect_scalar(Sysno::Getpid, |ks| ks.getpid())
    }

    fn getuid(&mut self) -> Result<u32, Errno> {
        self.redirect_scalar(Sysno::Getuid, |ks| ks.getuid())
    }

    fn setuid(&mut self, uid: u32) -> Result<(), Errno> {
        self.redirect_scalar(Sysno::Setuid, |ks| ks.setuid(uid))
    }

    fn print(&mut self, msg: &str) -> Result<usize, Errno> {
        self.redirect_in(Sysno::Write, msg.as_bytes(), |ks, b| ks.write(1, b))
    }

    fn clock_gettime(&mut self) -> Result<u64, Errno> {
        self.redirect_scalar(Sysno::ClockGettime, |ks| ks.clock_gettime())
    }

    fn sendfile(&mut self, out_fd: Fd, in_fd: Fd, len: usize) -> Result<usize, Errno> {
        self.redirect_scalar(Sysno::Sendfile, |ks| ks.sendfile(out_fd, in_fd, len))
    }

    fn ioctl(&mut self, _fd: Fd, _req: u64) -> Result<u64, Errno> {
        // No spec: unsupported -> enclave killed (matches §7 behaviour).
        self.pre(Sysno::Ioctl).map(|_| 0)
    }

    fn burn(&mut self, cycles: u64) {
        self.cvm.hv.machine.charge(CostCategory::Compute, cycles);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{install_enclave, EnclaveBinary};
    use veil_services::CvmBuilder;
    use veil_snp::mem::PAGE_SIZE;

    /// The kernel cannot be made to return an enclave pointer from `mmap`
    /// (VeilS-ENC refuses the mirror first), so the check is driven
    /// directly with hostile ranges.
    #[test]
    fn iago_check_refuses_every_range_that_reaches_the_enclave() {
        let mut cvm = CvmBuilder::new().frames(4096).vcpus(1).build().unwrap();
        let pid = cvm.spawn();
        let handle =
            install_enclave(&mut cvm, pid, &EnclaveBinary::build("iago", 1024, 0)).unwrap();
        let (base, end) = (handle.base, handle.base + handle.len as u64);
        let mut rt = EnclaveRuntime::new(handle);
        let mut sys = EnclaveSys { cvm: &mut cvm, rt: &mut rt };
        let page = PAGE_SIZE as u64;
        let refused = [
            (base, PAGE_SIZE),                    // inside, at the base
            (end - page, PAGE_SIZE),              // inside, at the top
            (base - page, 2 * PAGE_SIZE),         // over the low edge
            (end - page, 2 * PAGE_SIZE),          // over the high edge
            (u64::MAX - page + 1, 2 * PAGE_SIZE), // runs past u64::MAX
            (end, usize::MAX),                    // wraps round onto the enclave
        ];
        for (addr, len) in refused {
            assert_eq!(
                sys.check_untrusted_pointer(addr, len),
                Err(Errno::EFAULT),
                "{addr:#x}+{len:#x}"
            );
        }
        let allowed = [
            (base - page, PAGE_SIZE), // ends exactly at the base
            (end, PAGE_SIZE),         // starts exactly at the top
        ];
        for (addr, len) in allowed {
            assert_eq!(sys.check_untrusted_pointer(addr, len), Ok(()), "{addr:#x}+{len:#x}");
        }
        assert_eq!(rt.stats.iago_blocks, refused.len() as u64);
    }
}
