//! End-to-end SDK tests: install → run shielded syscalls → page → destroy.

use veil_os::error::{Errno, OsError, Refusal};
use veil_os::monitor::MonRequest;
use veil_os::process::{Pid, MMAP_BASE};
use veil_os::sys::{OpenFlags, Sys, Whence};
use veil_sdk::install::{swap_in_page, swap_out_page};
use veil_sdk::{install_enclave, remove_enclave, EnclaveBinary, EnclaveRuntime, EnclaveSys};
use veil_services::CvmBuilder;
use veil_snp::cost::CostCategory;
use veil_snp::mem::{gpa_of, PAGE_SIZE};
use veil_snp::perms::Access;
use veil_snp::perms::{Cpl, Vmpl};

fn cvm() -> veil_services::Cvm {
    CvmBuilder::new().frames(4096).vcpus(1).build().expect("boot")
}

#[test]
fn install_and_measure() {
    let mut cvm = cvm();
    let pid = cvm.spawn();
    let binary = EnclaveBinary::build("hello-enclave", 6000, 2000);
    let handle = install_enclave(&mut cvm, pid, &binary).expect("install");
    let enclave = cvm.gate.services.enc.enclave(handle.id).expect("live");
    assert_eq!(enclave.resident_pages(), binary.total_pages());
    // The OS can no longer read enclave memory.
    let gpa = gpa_of(handle.frames[0]);
    assert!(cvm.hv.machine.read(Vmpl::Vmpl3, gpa, 16).is_err());
    // ...but the enclave contents were measured before sealing.
    assert_ne!(enclave.measurement.0, [0u8; 32]);
}

#[test]
fn measurement_is_reproducible_and_binary_sensitive() {
    let binary = EnclaveBinary::build("det", 3000, 500);
    let m1 = {
        let mut cvm = cvm();
        let pid = cvm.spawn();
        let h = install_enclave(&mut cvm, pid, &binary).unwrap();
        cvm.gate.services.enc.enclave(h.id).unwrap().measurement
    };
    let m2 = {
        let mut cvm = cvm();
        let pid = cvm.spawn();
        let h = install_enclave(&mut cvm, pid, &binary).unwrap();
        cvm.gate.services.enc.enclave(h.id).unwrap().measurement
    };
    assert_eq!(m1, m2, "same binary, same measurement");
    let m3 = {
        let mut cvm = cvm();
        let pid = cvm.spawn();
        let other = EnclaveBinary::build("det2", 3000, 500);
        let h = install_enclave(&mut cvm, pid, &other).unwrap();
        cvm.gate.services.enc.enclave(h.id).unwrap().measurement
    };
    assert_ne!(m1, m3, "different binary, different measurement");
}

#[test]
fn shielded_syscalls_roundtrip() {
    let mut cvm = cvm();
    let pid = cvm.spawn();
    let binary = EnclaveBinary::build("worker", 4096, 1024);
    let handle = install_enclave(&mut cvm, pid, &binary).expect("install");
    let mut rt = EnclaveRuntime::new(handle);
    {
        let mut sys = EnclaveSys::activate(&mut cvm, &mut rt).expect("enter");
        let fd = sys.open("/tmp/shielded.txt", OpenFlags::rdwr_create()).unwrap();
        assert_eq!(sys.write(fd, b"from inside the enclave").unwrap(), 23);
        sys.lseek(fd, 0, Whence::Set).unwrap();
        let mut buf = [0u8; 23];
        assert_eq!(sys.read(fd, &mut buf).unwrap(), 23);
        assert_eq!(&buf, b"from inside the enclave");
        sys.close(fd).unwrap();
        sys.deactivate().unwrap();
    }
    // Each syscall cost two enclave crossings (plus entry/exit).
    assert!(rt.stats.syscalls >= 4);
    assert!(rt.stats.crossings >= 2 * rt.stats.syscalls);
    assert!(rt.stats.bytes_copied >= 46, "deep copies of both buffers");
    // The cycle account saw enclave-exit work.
    assert!(cvm.hv.machine.cycles().of(CostCategory::EnclaveExit) > 0);
}

#[test]
fn enclave_memory_accessible_inside_only() {
    let mut cvm = cvm();
    let pid = cvm.spawn();
    let binary = EnclaveBinary::build("memtest", 4096, 4096).with_heap_pages(4);
    let handle = install_enclave(&mut cvm, pid, &binary).expect("install");
    let heap_addr = handle.heap_base;
    let mut rt = EnclaveRuntime::new(handle);
    {
        let mut sys = EnclaveSys::activate(&mut cvm, &mut rt).expect("enter");
        let ptr = sys.rt.heap.malloc(64).unwrap();
        assert!(ptr >= heap_addr);
        sys.mem_write(ptr, b"secret key material").unwrap();
        let mut buf = [0u8; 19];
        sys.mem_read(ptr, &mut buf).unwrap();
        assert_eq!(&buf, b"secret key material");
        sys.deactivate().unwrap();
    }
    // The OS path (kernel Sys) cannot read the same address.
    let mut os_sys = cvm.sys(pid);
    let mut buf = [0u8; 19];
    assert_eq!(os_sys.mem_read(heap_addr, &mut buf), Err(Errno::EFAULT));
}

#[test]
fn unsupported_syscall_kills_enclave() {
    let mut cvm = cvm();
    let pid = cvm.spawn();
    let handle = install_enclave(&mut cvm, pid, &EnclaveBinary::build("victim", 1024, 0)).unwrap();
    let mut rt = EnclaveRuntime::new(handle);
    let mut sys = EnclaveSys::activate(&mut cvm, &mut rt).expect("enter");
    assert_eq!(sys.ioctl(1, 0x5401), Err(Errno::ENOSYS));
    // Killed: every further call refuses.
    assert_eq!(sys.getpid(), Err(Errno::EKEYREJECTED));
    assert!(rt.stats.killed);
}

#[test]
fn iago_mmap_into_enclave_rejected() {
    let mut cvm = cvm();
    let pid = cvm.spawn();
    let handle = install_enclave(&mut cvm, pid, &EnclaveBinary::build("iago", 1024, 0)).unwrap();
    let base = handle.base;
    let mut rt = EnclaveRuntime::new(handle);
    let mut sys = EnclaveSys::activate(&mut cvm, &mut rt).expect("enter");
    // Honest kernel returns an outside pointer: fine.
    let addr = sys.mmap(PAGE_SIZE).unwrap();
    assert!(addr != 0);
    // Simulate the check against a malicious value directly.
    assert!(!(base..base + 1).contains(&addr));
    assert_eq!(rt.stats.iago_blocks, 0);
}

#[test]
fn sealed_paging_roundtrip() {
    let mut cvm = cvm();
    let pid = cvm.spawn();
    let binary = EnclaveBinary::build("pager", 4096, 4096).with_heap_pages(4);
    let mut handle = install_enclave(&mut cvm, pid, &binary).unwrap();
    let victim_vaddr = handle.heap_base; // first heap page
                                         // Write a recognizable value through the enclave first.
    {
        let mut rt = EnclaveRuntime::new(handle.clone());
        let mut sys = EnclaveSys::activate(&mut cvm, &mut rt).unwrap();
        sys.mem_write(victim_vaddr, b"persist me").unwrap();
        sys.deactivate().unwrap();
    }
    // OS evicts the page: ciphertext lands in its swap file.
    let path = swap_out_page(&mut cvm, &handle, victim_vaddr).expect("page out");
    {
        let enclave = cvm.gate.services.enc.enclave(handle.id).unwrap();
        assert_eq!(enclave.sealed_pages(), 1);
        // Swap file exists and does not contain the plaintext.
        let mut sys = cvm.sys(pid);
        let fd = sys.open(&path, OpenFlags::rdonly()).unwrap();
        let mut sealed = vec![0u8; PAGE_SIZE];
        sys.read(fd, &mut sealed).unwrap();
        sys.close(fd).ok();
        assert!(!sealed.windows(10).any(|w| w == b"persist me"), "sealed page leaks plaintext");
    }
    // Page back in: contents restored, enclave-readable.
    swap_in_page(&mut cvm, &mut handle, victim_vaddr).expect("page in");
    {
        let mut rt = EnclaveRuntime::new(handle.clone());
        let mut sys = EnclaveSys::activate(&mut cvm, &mut rt).unwrap();
        let mut buf = [0u8; 10];
        sys.mem_read(victim_vaddr, &mut buf).unwrap();
        assert_eq!(&buf, b"persist me");
        sys.deactivate().unwrap();
    }
}

#[test]
fn rollback_attack_on_sealed_page_detected() {
    let mut cvm = cvm();
    let pid = cvm.spawn();
    let binary = EnclaveBinary::build("rollback", 4096, 4096).with_heap_pages(4);
    let mut handle = install_enclave(&mut cvm, pid, &binary).unwrap();
    let vaddr = handle.heap_base;
    {
        let mut rt = EnclaveRuntime::new(handle.clone());
        let mut sys = EnclaveSys::activate(&mut cvm, &mut rt).unwrap();
        sys.mem_write(vaddr, b"version 1").unwrap();
        sys.deactivate().unwrap();
    }
    // Evict v1, keep a copy of the sealed bytes (the attacker's stash).
    let path = swap_out_page(&mut cvm, &handle, vaddr).unwrap();
    let stale: Vec<u8> = {
        let mut sys = cvm.sys(pid);
        let fd = sys.open(&path, OpenFlags::rdonly()).unwrap();
        let mut sealed = vec![0u8; PAGE_SIZE];
        sys.read(fd, &mut sealed).unwrap();
        sys.close(fd).ok();
        sealed
    };
    // Restore, update to v2, evict again.
    swap_in_page(&mut cvm, &mut handle, vaddr).unwrap();
    {
        let mut rt = EnclaveRuntime::new(handle.clone());
        let mut sys = EnclaveSys::activate(&mut cvm, &mut rt).unwrap();
        sys.mem_write(vaddr, b"version 2").unwrap();
        sys.deactivate().unwrap();
    }
    let path2 = swap_out_page(&mut cvm, &handle, vaddr).unwrap();
    // The attacker overwrites the swap file with the stale v1 seal.
    {
        let mut sys = cvm.sys(pid);
        let fd = sys.open(&path2, OpenFlags::wronly_create_trunc()).unwrap();
        sys.write(fd, &stale).unwrap();
        sys.close(fd).ok();
    }
    // Page-in must refuse: freshness counter mismatch.
    let err = swap_in_page(&mut cvm, &mut handle, vaddr);
    assert!(err.is_err(), "rollback must be detected");
}

#[test]
fn destroy_scrubs_and_returns_memory() {
    let mut cvm = cvm();
    let pid = cvm.spawn();
    let avail_before = cvm.kernel.frames.available();
    let handle =
        install_enclave(&mut cvm, pid, &EnclaveBinary::build("teardown", 2048, 1024)).unwrap();
    let secret_frame = handle.frames[0];
    remove_enclave(&mut cvm, &handle).expect("destroy");
    assert_eq!(cvm.gate.services.enc.count(), 0);
    // Frame is back, OS-accessible, and scrubbed.
    assert!(cvm.hv.machine.rmp().check(secret_frame, Vmpl::Vmpl3, Access::Read).is_ok());
    let contents = cvm.hv.machine.read(Vmpl::Vmpl3, gpa_of(secret_frame), PAGE_SIZE).unwrap();
    assert!(contents.iter().all(|b| *b == 0), "enclave contents must be scrubbed");
    // Frames returned to the pool (minus page-table frames kept by procs).
    assert!(cvm.kernel.frames.available() + 64 >= avail_before);
}

#[test]
fn two_enclaves_have_disjoint_frames_and_keys() {
    let mut cvm = cvm();
    let pid_a = cvm.spawn();
    let pid_b = cvm.spawn();
    let ha = install_enclave(&mut cvm, pid_a, &EnclaveBinary::build("a", 2048, 0)).unwrap();
    let hb = install_enclave(&mut cvm, pid_b, &EnclaveBinary::build("b", 2048, 0)).unwrap();
    assert_ne!(ha.id, hb.id);
    for f in &ha.frames {
        assert!(!hb.frames.contains(f), "physical disjointness violated");
    }
    assert_ne!(ha.ghcb_gfn, hb.ghcb_gfn, "per-thread GHCBs are distinct");
    // Measurements differ (different binaries).
    let ma = cvm.gate.services.enc.enclave(ha.id).unwrap().measurement;
    let mb = cvm.gate.services.enc.enclave(hb.id).unwrap().measurement;
    assert_ne!(ma, mb);
}

#[test]
fn enclave_mmap_reaches_shared_memory() {
    let mut cvm = cvm();
    let pid = cvm.spawn();
    let handle = install_enclave(&mut cvm, pid, &EnclaveBinary::build("mapper", 1024, 0)).unwrap();
    let mut rt = EnclaveRuntime::new(handle);
    let mut sys = EnclaveSys::activate(&mut cvm, &mut rt).unwrap();
    let addr = sys.mmap(2 * PAGE_SIZE).unwrap();
    // The enclave can use the new shared region through its own tables
    // (EncMapSync mirrored it into the protected clone).
    let aspace = sys.cvm.gate.services.enc.enclave(sys.rt.handle.id).unwrap().aspace;
    aspace
        .write_virt(&mut sys.cvm.hv.machine, addr, b"shared via sync", Vmpl::Vmpl2, Cpl::Cpl3)
        .expect("enclave reaches mmapped shared buffer");
    sys.munmap(addr, 2 * PAGE_SIZE).unwrap();
    assert!(
        aspace.read_virt(&sys.cvm.hv.machine, addr, 4, Vmpl::Vmpl2, Cpl::Cpl3).is_err(),
        "unmap synced into the clone"
    );
}

/// A refused `EncMapSync { map: false }` leaves the enclave's mapping in
/// place, so `munmap` must keep the frames out of the pool until a retry
/// gets the revocation through.
#[test]
fn munmap_frees_frames_only_after_the_enclave_mapping_is_revoked() {
    let mut cvm = cvm();
    let pid = cvm.spawn();
    let handle = install_enclave(&mut cvm, pid, &EnclaveBinary::build("unmap", 1024, 0)).unwrap();
    let addr = cvm.sys(pid).mmap(PAGE_SIZE).unwrap();
    let aspace = cvm.gate.services.enc.enclave(handle.id).unwrap().aspace;
    let enclave_reaches = |cvm: &veil_services::Cvm| {
        aspace.read_virt(&cvm.hv.machine, addr, 4, Vmpl::Vmpl2, Cpl::Cpl3).is_ok()
    };
    assert!(enclave_reaches(&cvm), "mmap mirrored into the enclave's tables");
    let free = cvm.kernel.frames.available();

    cvm.hv.policy.refuse_switches = true;
    assert_eq!(cvm.sys(pid).munmap(addr, PAGE_SIZE), Err(Errno::EBUSY));
    assert_eq!(cvm.kernel.frames.available(), free, "no frame returned to the pool");
    assert!(enclave_reaches(&cvm), "the enclave still maps the page");

    cvm.hv.policy.refuse_switches = false;
    cvm.sys(pid).munmap(addr, PAGE_SIZE).expect("honest retry");
    assert_eq!(cvm.kernel.frames.available(), free + 1, "frame back in the pool");
    assert!(!enclave_reaches(&cvm), "revoked from the enclave's tables");
}

/// A host that refuses the `EncFinalize` switch leaves nothing behind:
/// an honest retry succeeds and leaves as many frames free as one
/// undisturbed install. The retry reuses the page tables of the first
/// attempt, so one more frame waits in the page-table pool.
#[test]
fn refused_install_is_undone_and_an_honest_retry_succeeds() {
    let binary = EnclaveBinary::build("retry", 6000, 2000);
    let undisturbed = {
        let mut cvm = cvm();
        let pid = cvm.spawn();
        install_enclave(&mut cvm, pid, &binary).unwrap();
        free(&cvm)
    };
    let mut cvm = cvm();
    let pid = cvm.spawn();
    cvm.hv.policy.refuse_switches = true;
    let refused = install_enclave(&mut cvm, pid, &binary).unwrap_err();
    assert_eq!(refused, OsError::Refused(Refusal::HostRefused));
    assert_eq!(cvm.kernel.enclave_ghcbs_used, 0, "GHCB slot given back");

    cvm.hv.policy.refuse_switches = false;
    let handle = install_enclave(&mut cvm, pid, &binary).expect("honest retry");
    assert_eq!(
        cvm.gate.services.enc.enclave(handle.id).unwrap().resident_pages(),
        binary.total_pages()
    );
    assert_eq!(free(&cvm), undisturbed);
}

fn free(cvm: &veil_services::Cvm) -> usize {
    cvm.kernel.frames.available() + cvm.kernel.pt_pool_len()
}

fn regions(cvm: &veil_services::Cvm, pid: Pid) -> usize {
    cvm.kernel.process(pid).unwrap().mmaps.len()
}

/// A refused `EncMapSync { map: true }` fails `mmap` (here the region
/// lies in a fresh 1 GiB slot, where the enclave's clone has no page
/// tables, and VeilS-ENC has no frame left to build them). The process
/// never learns the region's address, so once VeilS-ENC confirms the
/// revocation the kernel takes the region back itself: no region
/// recorded, no frame kept but the OS page tables an undisturbed `mmap`
/// leaves too, and the address free for an honest retry.
#[test]
fn mmap_refused_by_the_enclave_mirror_keeps_nothing() {
    let far = MMAP_BASE + (1 << 30);
    let booted = || {
        let mut cvm = cvm();
        let pid = cvm.spawn();
        install_enclave(&mut cvm, pid, &EnclaveBinary::build("mirror", 1024, 0)).unwrap();
        cvm.kernel.process_mut(pid).unwrap().mmap_cursor = far;
        (cvm, pid)
    };
    let undisturbed = {
        let (mut cvm, pid) = booted();
        cvm.sys(pid).mmap(4 * PAGE_SIZE).unwrap();
        cvm.sys(pid).munmap(far, 4 * PAGE_SIZE).unwrap();
        free(&cvm)
    };
    let (mut cvm, pid) = booted();
    let mapped = regions(&cvm, pid);

    let drained: Vec<u64> = std::iter::from_fn(|| cvm.gate.monitor.alloc_mon().ok()).collect();
    assert_eq!(cvm.sys(pid).mmap(4 * PAGE_SIZE), Err(Errno::ENOMEM));
    assert_eq!(regions(&cvm, pid), mapped, "no region recorded");
    assert_eq!(free(&cvm), undisturbed, "every data frame back in the pool");

    drained.into_iter().for_each(|gfn| cvm.gate.monitor.free_mon(gfn));
    assert_eq!(cvm.sys(pid).mmap(4 * PAGE_SIZE), Ok(far), "honest retry at the same address");
}

/// A mirror refused partway has already mapped the region's first page
/// into the enclave's tables (here the second page needs a page table the
/// clone lacks, and VeilS-ENC has no frame left for it). No frame may go
/// back to the kernel's pool while the enclave still maps it.
#[test]
fn mmap_frees_no_frame_a_partial_enclave_mirror_still_maps() {
    let mut cvm = cvm();
    let pid = cvm.spawn();
    let handle = install_enclave(&mut cvm, pid, &EnclaveBinary::build("edge", 1024, 0)).unwrap();
    // The last page of the leaf table that holds the install's own regions.
    let last = MMAP_BASE + (511 * PAGE_SIZE) as u64;
    cvm.kernel.process_mut(pid).unwrap().mmap_cursor = last;
    let mapped = regions(&cvm, pid);

    let _drained: Vec<u64> = std::iter::from_fn(|| cvm.gate.monitor.alloc_mon().ok()).collect();
    assert_eq!(cvm.sys(pid).mmap(2 * PAGE_SIZE), Err(Errno::ENOMEM));
    assert_eq!(regions(&cvm, pid), mapped, "region taken back after the revocation");

    let aspace = cvm.gate.services.enc.enclave(handle.id).unwrap().aspace;
    let still_mapped = aspace.translate(&cvm.hv.machine, last).ok();
    let pool = cvm.kernel.frames.alloc_n(cvm.kernel.frames.available()).unwrap();
    if let Some((gfn, _)) = still_mapped {
        assert!(!pool.contains(&gfn), "frame {gfn:#x} in the pool and in the enclave's tables");
    }
}

/// A host that refuses every switch blocks the revocation too, and the
/// kernel cannot tell whether the failed mirror mapped anything: the
/// region stays recorded with its frames, and `munmap` frees it once the
/// host relents.
#[test]
fn mmap_keeps_a_region_whose_mirror_cannot_be_revoked() {
    let mut cvm = cvm();
    let pid = cvm.spawn();
    install_enclave(&mut cvm, pid, &EnclaveBinary::build("blocked", 1024, 0)).unwrap();
    let (before, mapped) = (free(&cvm), regions(&cvm, pid));

    cvm.hv.policy.refuse_switches = true;
    assert_eq!(cvm.sys(pid).mmap(4 * PAGE_SIZE), Err(Errno::ENOMEM));
    assert_eq!(regions(&cvm, pid), mapped + 1, "region recorded");
    assert_eq!(free(&cvm), before - 4, "its frames stay out of the pool");

    cvm.hv.policy.refuse_switches = false;
    let addr = *cvm.kernel.process(pid).unwrap().mmaps.keys().last().unwrap();
    cvm.sys(pid).munmap(addr, 4 * PAGE_SIZE).unwrap();
    assert_eq!(free(&cvm), before);
}

/// The untrusted OS may send `EncDestroy` at any time. The runtime's next
/// staged syscall and direct memory access then fail with an error; none
/// of them panics.
#[test]
fn enclave_destroyed_by_the_os_fails_calls_without_panicking() {
    let mut cvm = cvm();
    let pid = cvm.spawn();
    let handle = install_enclave(&mut cvm, pid, &EnclaveBinary::build("doomed", 1024, 0)).unwrap();
    let (id, heap) = (handle.id, handle.heap_base);
    let mut rt = EnclaveRuntime::new(handle);
    let fd = {
        let mut sys = EnclaveSys::activate(&mut cvm, &mut rt).unwrap();
        let fd = sys.open("/tmp/doomed", OpenFlags::rdwr_create()).unwrap();
        sys.write(fd, b"before").unwrap();
        fd
    };
    {
        let (_, ctx) = cvm.kctx();
        ctx.gate.request(ctx.hv, 0, MonRequest::EncDestroy { enclave_id: id }).unwrap();
    }
    assert!(cvm.gate.services.enc.enclave(id).is_none());

    let mut sys = EnclaveSys::activate(&mut cvm, &mut rt).unwrap();
    let mut buf = [0u8; 4];
    assert_eq!(sys.write(fd, b"after"), Err(Errno::EFAULT));
    assert_eq!(sys.mem_write(heap, b"gone"), Err(Errno::EFAULT));
    assert_eq!(sys.mem_read(heap, &mut buf), Err(Errno::EFAULT));
    assert!(sys.read(fd, &mut buf).is_err());
    assert!(sys.getpid().is_err());
    assert!(sys.deactivate().is_err());
}
