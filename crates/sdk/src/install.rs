//! Enclave installation — the kernel-module flow (§6.2/§7).
//!
//! "Using IOCTL to a kernel module, the process asks the operating system
//! to install the binary within an enclave. The operating system copies
//! the binary into memory, relocates its symbols, and initializes other
//! needed memory regions (e.g., stack). After installation, the operating
//! system invokes VeilS-ENC to finalize the enclave."

use crate::binary::EnclaveBinary;
use veil_os::error::{OsError, Refusal};
use veil_os::monitor::{MonRequest, MonResponse};
use veil_os::process::{Pid, ENCLAVE_BASE};
use veil_os::sys::Sys;
use veil_services::Cvm;
use veil_snp::cost::CostCategory;
use veil_snp::mem::{gpa_of, PAGE_SIZE};
use veil_snp::pt::PteFlags;

/// Size of the shared (untrusted) staging buffer mapped for syscall
/// redirection, in bytes.
pub const SHARED_BUF_LEN: usize = 16 * PAGE_SIZE;

/// Virtual address the per-thread GHCB is mapped at in the process.
pub const GHCB_VADDR: u64 = 0x4f00_0000;

/// Everything the untrusted runtime needs to drive an enclave.
#[derive(Debug, Clone)]
pub struct EnclaveHandle {
    /// VeilS-ENC enclave id.
    pub id: u64,
    /// Owning process.
    pub pid: Pid,
    /// Enclave range base (== [`ENCLAVE_BASE`]).
    pub base: u64,
    /// Enclave range length in bytes.
    pub len: usize,
    /// Heap sub-range base (inside the enclave).
    pub heap_base: u64,
    /// Heap length in bytes.
    pub heap_len: u64,
    /// Shared staging buffer base (outside the enclave).
    pub shared_base: u64,
    /// Shared buffer length.
    pub shared_len: usize,
    /// The user-mapped GHCB frame.
    pub ghcb_gfn: u64,
    /// Frames backing the enclave (for teardown bookkeeping by the
    /// kernel module; VeilS-ENC independently tracks its own copy).
    pub frames: Vec<u64>,
}

impl EnclaveHandle {
    /// Whether `vaddr` lies inside the enclave range.
    pub fn contains(&self, vaddr: u64) -> bool {
        vaddr >= self.base && vaddr < self.base + self.len as u64
    }
}

/// Installs `binary` as an enclave in process `pid` and finalizes it
/// through VeilS-ENC. Returns the handle.
///
/// # Errors
///
/// Kernel allocation failures and every VeilS-ENC refusal (invariant
/// violations, bad GHCB) surface here. A refusal undoes the kernel-side
/// steps (the page tables the process gained stay), so the install can be
/// retried.
pub fn install_enclave(
    cvm: &mut Cvm,
    pid: Pid,
    binary: &EnclaveBinary,
) -> Result<EnclaveHandle, OsError> {
    // The per-thread user GHCB (§6.2) comes from a fixed pool: check for
    // a free one before allocating anything.
    let used = cvm.kernel.enclave_ghcbs_used;
    let candidates = cvm.gate.monitor.layout.enclave_ghcb_gfns(cvm.gate.monitor.vcpus, used + 1);
    let ghcb_gfn = *candidates.get(used as usize).ok_or(Refusal::NoGhcb)?;

    // 1. The shared staging buffer must exist before finalization so the
    //    clone includes it.
    let shared_base = cvm.sys(pid).mmap(SHARED_BUF_LEN)?;

    // 2. Lay out the enclave region: allocate frames, copy contents,
    //    map with the binary's segment permissions.
    let pages = binary.expected_pages(ENCLAVE_BASE);
    let mut frames = Vec::with_capacity(pages.len());
    {
        let (kernel, mut ctx) = cvm.kctx();
        for (vaddr, flag_bits, contents) in &pages {
            let gfn = kernel.frames.alloc()?;
            ctx.hv.machine.write(kernel.vmpl, gpa_of(gfn), contents).map_err(OsError::Snp)?;
            let copy = ctx.hv.machine.cost().copy(PAGE_SIZE) + ctx.hv.machine.cost().page_touch;
            ctx.hv.machine.charge(CostCategory::KernelService, copy);
            let flags = PteFlags::from_bits_truncate(*flag_bits);
            kernel.map_user_page(&mut ctx, pid, *vaddr, gfn, flags)?;
            frames.push(gfn);
        }
    }

    // 3. Map the user GHCB.
    let ghcb_vaddr = GHCB_VADDR + used as u64 * PAGE_SIZE as u64;
    {
        let (kernel, mut ctx) = cvm.kctx();
        kernel.enclave_ghcbs_used += 1;
        kernel.map_user_page(&mut ctx, pid, ghcb_vaddr, ghcb_gfn, PteFlags::user_data())?;
    }

    // 4. Finalize through VeilS-ENC.
    let len = pages.len() * PAGE_SIZE;
    let cr3_gfn =
        cvm.kernel.process(pid)?.aspace.expect("aspace created by shared-buffer mmap").root_gfn();
    let req = MonRequest::EncFinalize { pid, cr3_gfn, base_vaddr: ENCLAVE_BASE, len, ghcb_gfn };
    let finalized = {
        let (_, ctx) = cvm.kctx();
        ctx.gate.request(ctx.hv, ctx.vcpu, req)
    };
    let id = match finalized {
        Ok(MonResponse::Value(id)) => id,
        Ok(_) => return Err(Refusal::UnexpectedResponse.into()),
        // A host refusal means the switch to VeilS-ENC never happened,
        // and each of its own refusals comes before its first
        // `rmpadjust`: every frame is still the kernel's, so steps 1-3
        // are undone. An unexpected response can follow a finalize that
        // did run (a misrouted switch back), so it undoes nothing.
        Err(OsError::Refused(why)) if why != Refusal::UnexpectedResponse => {
            let (kernel, mut ctx) = cvm.kctx();
            for ((vaddr, _, _), gfn) in pages.iter().zip(&frames) {
                let _ = kernel.unmap_user_page(&mut ctx, pid, *vaddr);
                kernel.frames.free(*gfn);
            }
            let _ = kernel.unmap_user_page(&mut ctx, pid, ghcb_vaddr);
            kernel.enclave_ghcbs_used -= 1;
            let _ = cvm.sys(pid).munmap(shared_base, SHARED_BUF_LEN);
            return Err(why.into());
        }
        Err(e) => return Err(e),
    };
    cvm.kernel.process_mut(pid)?.enclave_id = Some(id);
    cvm.kernel.process_mut(pid).expect("exists").user_ghcb_gfn = Some(ghcb_gfn);

    let heap_pages = binary.heap_pages;
    let heap_base = ENCLAVE_BASE + ((binary.text_pages() + binary.data_pages()) * PAGE_SIZE) as u64;
    Ok(EnclaveHandle {
        id,
        pid,
        base: ENCLAVE_BASE,
        len,
        heap_base,
        heap_len: (heap_pages * PAGE_SIZE) as u64,
        shared_base,
        shared_len: SHARED_BUF_LEN,
        ghcb_gfn,
        frames,
    })
}

/// A secondary enclave thread created by [`add_enclave_thread`].
#[derive(Debug, Clone, Copy)]
pub struct EnclaveThread {
    /// VCPU the thread runs on.
    pub vcpu: u32,
    /// The thread's user-mapped GHCB frame.
    pub ghcb_gfn: u64,
}

/// §7 multi-threading, implemented: asks the OS scheduler + VeilMon to
/// create an enclave thread context on `vcpu` (a per-thread GHCB plus a
/// synchronized `Dom_ENC` VMSA).
///
/// # Errors
///
/// Propagates VeilS-ENC refusals (duplicate thread, bad GHCB) and GHCB
/// pool exhaustion.
pub fn add_enclave_thread(
    cvm: &mut Cvm,
    handle: &EnclaveHandle,
    vcpu: u32,
) -> Result<EnclaveThread, OsError> {
    // Allocate + map another per-thread GHCB (kernel-module step).
    let used = cvm.kernel.enclave_ghcbs_used;
    let candidates = cvm.gate.monitor.layout.enclave_ghcb_gfns(cvm.gate.monitor.vcpus, used + 1);
    let ghcb_gfn = *candidates.get(used as usize).ok_or(Refusal::NoGhcb)?;
    {
        let (kernel, mut ctx) = cvm.kctx();
        kernel.enclave_ghcbs_used += 1;
        let vaddr = GHCB_VADDR + used as u64 * PAGE_SIZE as u64;
        kernel.map_user_page(&mut ctx, handle.pid, vaddr, ghcb_gfn, PteFlags::user_data())?;
    }
    // The scheduler requests the thread context from VeilMon (§7).
    let (_, ctx) = cvm.kctx();
    ctx.gate.request(
        ctx.hv,
        ctx.vcpu,
        MonRequest::EncAddThread { enclave_id: handle.id, vcpu, ghcb_gfn },
    )?;
    Ok(EnclaveThread { vcpu, ghcb_gfn })
}

/// Destroys the enclave and returns its frames to the kernel pool.
///
/// # Errors
///
/// Propagates VeilS-ENC refusals (unknown handle).
pub fn remove_enclave(cvm: &mut Cvm, handle: &EnclaveHandle) -> Result<(), OsError> {
    {
        let (_, ctx) = cvm.kctx();
        ctx.gate.request(ctx.hv, ctx.vcpu, MonRequest::EncDestroy { enclave_id: handle.id })?;
    }
    // The kernel module unmaps the region and frees the (scrubbed) frames.
    let (kernel, mut ctx) = cvm.kctx();
    for (i, gfn) in handle.frames.iter().enumerate() {
        let vaddr = handle.base + (i * PAGE_SIZE) as u64;
        let _ = kernel.unmap_user_page(&mut ctx, handle.pid, vaddr);
        kernel.frames.free(*gfn);
    }
    kernel.process_mut(handle.pid)?.enclave_id = None;
    Ok(())
}

/// OS-side demand paging: evicts one enclave page to the swap file.
/// Returns the swap key (path) the page was stored under.
///
/// # Errors
///
/// VeilS-ENC refusals (non-resident page) and VFS errors propagate.
pub fn swap_out_page(cvm: &mut Cvm, handle: &EnclaveHandle, vaddr: u64) -> Result<String, OsError> {
    // 1. Ask VeilS-ENC to seal + release the page.
    {
        let (_, ctx) = cvm.kctx();
        ctx.gate.request(
            ctx.hv,
            ctx.vcpu,
            MonRequest::EncPageOut { enclave_id: handle.id, vaddr },
        )?;
    }
    // 2. The frame now holds ciphertext and is OS-accessible: copy it to
    //    the swap store and free it.
    let page_idx = ((vaddr - handle.base) as usize) / PAGE_SIZE;
    let gfn = handle.frames[page_idx];
    let sealed = cvm.hv.machine.read(cvm.kernel.vmpl, gpa_of(gfn), PAGE_SIZE)?;
    let path = format!("/var/swap-enc{}-{vaddr:#x}", handle.id);
    {
        let mut sys = cvm.sys(handle.pid);
        let fd = sys.open(&path, veil_os::sys::OpenFlags::wronly_create_trunc())?;
        sys.write(fd, &sealed)?;
        sys.close(fd).ok();
    }
    let (kernel, mut ctx) = cvm.kctx();
    let _ = kernel.unmap_user_page(&mut ctx, handle.pid, vaddr);
    kernel.frames.free(gfn);
    Ok(path)
}

/// OS-side demand paging: services an enclave page fault by fetching the
/// sealed page back and asking VeilS-ENC to verify + re-install it.
///
/// # Errors
///
/// Integrity/freshness failures from VeilS-ENC propagate — and must, for
/// the rollback-defence tests.
pub fn swap_in_page(cvm: &mut Cvm, handle: &mut EnclaveHandle, vaddr: u64) -> Result<(), OsError> {
    let path = format!("/var/swap-enc{}-{vaddr:#x}", handle.id);
    let mut sealed = vec![0u8; PAGE_SIZE];
    {
        let mut sys = cvm.sys(handle.pid);
        let fd = sys.open(&path, veil_os::sys::OpenFlags::rdonly())?;
        sys.read(fd, &mut sealed)?;
        sys.close(fd).ok();
    }
    let (staging, dest) = {
        let (kernel, ctx) = cvm.kctx();
        let staging = kernel.frames.alloc()?;
        let dest = kernel.frames.alloc()?;
        ctx.hv.machine.write(kernel.vmpl, gpa_of(staging), &sealed).map_err(OsError::Snp)?;
        (staging, dest)
    };
    let result = {
        let (_, ctx) = cvm.kctx();
        ctx.gate.request(
            ctx.hv,
            ctx.vcpu,
            MonRequest::EncPageIn {
                enclave_id: handle.id,
                vaddr,
                staging_gfn: staging,
                dest_gfn: dest,
            },
        )
    };
    let (kernel, mut ctx) = cvm.kctx();
    kernel.frames.free(staging);
    match result {
        Ok(_) => {
            // Track the new backing frame; re-point the OS view too.
            let page_idx = ((vaddr - handle.base) as usize) / PAGE_SIZE;
            handle.frames[page_idx] = dest;
            let _ = kernel.map_user_page(&mut ctx, handle.pid, vaddr, dest, PteFlags::user_data());
            // The swap file stays behind: forensic tests read it.
            Ok(())
        }
        Err(e) => {
            kernel.frames.free(dest);
            Err(e)
        }
    }
}
