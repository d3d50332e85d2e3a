//! VeilS-ENC: shielded program execution (§6.2).
//!
//! SGX-style in-process enclaves at `Dom_ENC` (VMPL-2 + CPL-3):
//!
//! * **Finalization** — after the OS installs the enclave binary, the
//!   service revokes OS access to the enclave frames, *clones* the
//!   process page tables into protected memory, runs the two invariant
//!   scans (one-to-one virtual→physical mapping, physical disjointness
//!   across enclaves), and measures the initial state.
//! * **Entry/exit** — through a user-mapped per-thread GHCB, confined by
//!   the hypervisor to `Dom_ENC ↔ Dom_UNT` crossings.
//! * **Secure collaborative paging** — the OS keeps swap policy; pages
//!   leave `Dom_ENC` sealed (encrypt-then-MAC with a freshness counter)
//!   and only re-enter after integrity + freshness verification.
//! * **Permission/mapping synchronization** — OS changes to *non-enclave*
//!   regions are mirrored into the protected tables on request; changes
//!   to enclave regions are refused.

use std::collections::BTreeMap;
use veil_core::domain::Domain;
use veil_core::monitor::Monitor;
use veil_core::remote::SecureChannel;
use veil_crypto::{ChaCha20, HmacSha256, Sha256};
use veil_hv::{HvResponse, Hypervisor};
use veil_os::error::{OsError, Refusal};
use veil_snp::cost::CostCategory;
use veil_snp::ghcb::{Ghcb, GhcbExit};
use veil_snp::mem::{gpa_of, PAGE_SIZE};
use veil_snp::perms::{Vmpl, VmplPerms};
use veil_snp::pt::{AddressSpace, PteFlags};

/// A sealed (swapped-out) page's trusted metadata.
#[derive(Debug, Clone)]
struct SealedPage {
    /// Freshness counter bound into the seal.
    ctr: u64,
    /// Integrity tag over (vaddr, ctr, plaintext).
    tag: [u8; 32],
    /// PTE flags to restore on page-in.
    flags: PteFlags,
}

/// The measurement of an enclave's initial state (SHA-256 over page
/// addresses, permissions, and contents — §6.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EnclaveMeasurement(pub [u8; 32]);

/// One live enclave.
#[derive(Debug)]
pub struct Enclave {
    /// Handle.
    pub id: u64,
    /// Owning process.
    pub pid: u32,
    /// VCPU the (single) enclave thread is pinned to (§7).
    pub vcpu: u32,
    /// Enclave virtual range base.
    pub base_vaddr: u64,
    /// Enclave range length in bytes.
    pub len: usize,
    /// The protected clone of the process page tables.
    pub aspace: AddressSpace,
    /// Enclave data frames by virtual page address.
    frames: BTreeMap<u64, u64>,
    /// Frames used by the cloned table hierarchy.
    pt_frames: Vec<u64>,
    /// Initial-state measurement.
    pub measurement: EnclaveMeasurement,
    /// User-mapped per-thread GHCB frame (primary thread).
    pub ghcb_gfn: u64,
    /// The `Dom_ENC` VMSA for the primary enclave thread.
    pub vmsa_gfn: u64,
    /// All threads: VCPU -> (VMSA frame, user GHCB frame). The primary
    /// thread is present too. §7's multi-threading extension: "VeilMon
    /// must create a VMSA for the enclave thread on each VCPU and
    /// synchronize them so that the thread can execute on any VCPU."
    threads: std::collections::BTreeMap<u32, (u64, u64)>,
    /// Root of the *OS* page tables (for mapping synchronization).
    os_cr3_gfn: u64,
    seal_key: [u8; 32],
    sealed: BTreeMap<u64, SealedPage>,
    next_ctr: u64,
}

impl Enclave {
    /// Whether `vaddr` falls inside the protected enclave range.
    pub fn contains(&self, vaddr: u64) -> bool {
        vaddr >= self.base_vaddr && vaddr < self.base_vaddr + self.len as u64
    }

    /// Number of resident enclave pages.
    pub fn resident_pages(&self) -> usize {
        self.frames.len()
    }

    /// Number of sealed (swapped-out) pages.
    pub fn sealed_pages(&self) -> usize {
        self.sealed.len()
    }

    /// Threads (VCPUs) this enclave can run on.
    pub fn thread_count(&self) -> usize {
        self.threads.len()
    }

    /// The (VMSA, GHCB) pair for a thread.
    pub fn thread(&self, vcpu: u32) -> Option<(u64, u64)> {
        self.threads.get(&vcpu).copied()
    }
}

/// A pending memory-sharing offer between two mutually-trusting
/// enclaves (§10's Chancel-style extension).
#[derive(Debug, Clone, PartialEq, Eq)]
struct ShareOffer {
    owner: u64,
    peer: u64,
    vaddr: u64,
    pages: u64,
}

/// VeilS-ENC state.
#[derive(Debug, Default)]
pub struct VeilSEnc {
    enclaves: BTreeMap<u64, Enclave>,
    next_id: u64,
    /// Enclaves rejected during finalization (invariant failures).
    pub rejected: u64,
    /// Entries + exits, for Fig. 5 style accounting.
    pub crossings: u64,
    /// Outstanding sharing offers awaiting the peer's acceptance.
    share_offers: Vec<ShareOffer>,
}

impl VeilSEnc {
    /// Looks up a live enclave.
    pub fn enclave(&self, id: u64) -> Option<&Enclave> {
        self.enclaves.get(&id)
    }

    fn enclave_mut(&mut self, id: u64) -> Result<&mut Enclave, OsError> {
        self.enclaves.get_mut(&id).ok_or(Refusal::NoEnclave.into())
    }

    /// Finalizes an enclave the OS just installed (§6.2). Returns the
    /// enclave handle.
    ///
    /// # Errors
    ///
    /// Refused when: the range is empty/unmapped, a frame is shared or
    /// protected (other enclave / monitor memory), the one-to-one or
    /// disjointness invariants fail, or the GHCB frame is not shared.
    #[allow(clippy::too_many_arguments)]
    pub fn finalize(
        &mut self,
        monitor: &mut Monitor,
        hv: &mut Hypervisor,
        vcpu: u32,
        pid: u32,
        cr3_gfn: u64,
        base_vaddr: u64,
        len: usize,
        ghcb_gfn: u64,
    ) -> Result<u64, OsError> {
        let refuse = |this: &mut Self, why: Refusal| {
            this.rejected += 1;
            Err(why.into())
        };
        // The user-mapped GHCB must really be hypervisor-shared.
        if Ghcb::at(&hv.machine, ghcb_gfn).is_none() {
            return refuse(self, Refusal::GhcbNotShared);
        }
        // Walk the OS tables and collect every mapping (whole address
        // space — the enclave runs on the cloned tables exclusively).
        let os_aspace = AddressSpace::from_root(cr3_gfn);
        let mut mappings: Vec<(u64, u64, PteFlags)> = Vec::new();
        os_aspace.walk(&hv.machine, &mut |vaddr, pfn, flags| {
            mappings.push((vaddr, pfn, flags));
        });
        let enclave_pages: Vec<&(u64, u64, PteFlags)> = mappings
            .iter()
            .filter(|(v, _, _)| *v >= base_vaddr && *v < base_vaddr + len as u64)
            .collect();
        if enclave_pages.is_empty() {
            return refuse(self, Refusal::EnclaveUnmapped);
        }
        // Invariant 1: one-to-one virtual -> physical inside the enclave.
        let mut pfns: Vec<u64> = enclave_pages.iter().map(|(_, p, _)| *p).collect();
        pfns.sort_unstable();
        let before = pfns.len();
        pfns.dedup();
        if pfns.len() != before {
            return refuse(self, Refusal::EnclaveAliased);
        }
        // Invariant 2: physical disjointness — no frame may belong to a
        // protected region, which includes every other enclave's frames.
        if monitor.sanitize_gfns(&hv.machine, &pfns).is_err() {
            return refuse(self, Refusal::UnsafePointer);
        }

        // Clone the page tables into monitor-protected frames.
        let mut free = Vec::new();
        let needed = 8 + mappings.len() / 128;
        for _ in 0..needed {
            free.push(monitor.alloc_mon()?);
        }
        let clone =
            AddressSpace::new(&mut hv.machine, Vmpl::Vmpl0, &mut free).map_err(OsError::Pt)?;
        for (vaddr, pfn, flags) in &mappings {
            clone
                .map(&mut hv.machine, Vmpl::Vmpl0, &mut free, *vaddr, *pfn, *flags)
                .map_err(OsError::Pt)?;
        }
        // Return unused clone frames to the pool.
        for gfn in free {
            monitor.free_mon(gfn);
        }
        let pt_frames = clone.table_frames(&hv.machine);
        for gfn in &pt_frames {
            monitor.protect_frame(*gfn);
        }

        // Protect the enclave data frames: Dom_ENC gains user-level
        // access, Dom_SER manages, the OS loses everything. Measure as
        // we go (address, permissions, contents — §6.2).
        let mut hasher = Sha256::new();
        let mut frames = BTreeMap::new();
        let mut contents = [0u8; PAGE_SIZE];
        for (vaddr, pfn, flags) in enclave_pages {
            hv.machine.rmpadjust(
                Vmpl::Vmpl0,
                *pfn,
                Vmpl::Vmpl2,
                VmplPerms::rw().union(VmplPerms::USER_EXEC),
            )?;
            hv.machine.rmpadjust(Vmpl::Vmpl0, *pfn, Vmpl::Vmpl3, VmplPerms::empty())?;
            hv.machine.read_into(Vmpl::Vmpl1, gpa_of(*pfn), &mut contents)?;
            hasher.update(&vaddr.to_le_bytes());
            hasher.update(&flags.bits().to_le_bytes());
            hasher.update(&contents);
            let sha = hv.machine.cost().sha256(PAGE_SIZE);
            hv.machine.charge(CostCategory::Other, sha);
            monitor.protect_frame(*pfn);
            frames.insert(*vaddr, *pfn);
        }
        let measurement = EnclaveMeasurement(hasher.finalize());

        // Create the Dom_ENC VMSA for the enclave thread (§5.2) and
        // announce it so the hypervisor can relay entries.
        let vmsa_gfn = monitor.create_domain_vmsa(hv, vcpu, Domain::Enc)?;
        {
            let vmsa = hv.machine.vmsa_mut(vmsa_gfn).expect("created");
            vmsa.regs.rip = base_vaddr;
            vmsa.regs.cr3 = clone.root_gfn();
        }
        hv.register_domain_vmsa(vcpu, Vmpl::Vmpl2, vmsa_gfn);

        let id = self.next_id;
        self.next_id += 1;
        let mut threads = std::collections::BTreeMap::new();
        threads.insert(vcpu, (vmsa_gfn, ghcb_gfn));
        self.enclaves.insert(
            id,
            Enclave {
                id,
                pid,
                vcpu,
                base_vaddr,
                len,
                aspace: clone,
                frames,
                pt_frames,
                measurement,
                ghcb_gfn,
                vmsa_gfn,
                threads,
                os_cr3_gfn: cr3_gfn,
                seal_key: monitor.random32(),
                sealed: BTreeMap::new(),
                next_ctr: 1,
            },
        );
        Ok(id)
    }

    /// Seals and releases one enclave page to the OS (§6.2 demand paging,
    /// eviction half).
    ///
    /// # Errors
    ///
    /// Refused for non-resident pages or foreign enclaves.
    pub fn page_out(
        &mut self,
        monitor: &mut Monitor,
        hv: &mut Hypervisor,
        id: u64,
        vaddr: u64,
    ) -> Result<(), OsError> {
        let crypt = hv.machine.cost().crypt_page;
        let enclave = self.enclave_mut(id)?;
        if !enclave.contains(vaddr) {
            return Err(Refusal::PageNotResident.into());
        }
        let pfn = *enclave.frames.get(&vaddr).ok_or(Refusal::PageNotResident)?;
        let (_, flags) = enclave.aspace.translate(&hv.machine, vaddr).map_err(OsError::Pt)?;
        let ctr = enclave.next_ctr;
        enclave.next_ctr += 1;

        // Seal: integrity hash (with freshness) over the plaintext, then
        // encrypt the page in place.
        let mut page = [0u8; PAGE_SIZE];
        hv.machine.read_into(Vmpl::Vmpl1, gpa_of(pfn), &mut page)?;
        let mut mac = HmacSha256::new(&enclave.seal_key);
        mac.update(&vaddr.to_le_bytes());
        mac.update(&ctr.to_le_bytes());
        mac.update(&page);
        let tag = mac.finalize();
        ChaCha20::new(&enclave.seal_key).apply_keystream(&Self::nonce(vaddr, ctr), 1, &mut page);
        hv.machine.write(Vmpl::Vmpl1, gpa_of(pfn), &page)?;
        hv.machine.charge(CostCategory::Other, crypt);

        // Remove the mapping and hand the (ciphertext) frame to the OS.
        enclave.aspace.unmap(&mut hv.machine, Vmpl::Vmpl0, vaddr).map_err(OsError::Pt)?;
        hv.machine.rmpadjust(Vmpl::Vmpl0, pfn, Vmpl::Vmpl2, VmplPerms::empty())?;
        hv.machine.rmpadjust(Vmpl::Vmpl0, pfn, Vmpl::Vmpl3, VmplPerms::all())?;
        enclave.frames.remove(&vaddr);
        enclave.sealed.insert(vaddr, SealedPage { ctr, tag, flags });
        monitor.unprotect_frame(pfn);
        Ok(())
    }

    fn nonce(vaddr: u64, ctr: u64) -> [u8; 12] {
        let mut n = [0u8; 12];
        n[..8].copy_from_slice(&(vaddr ^ ctr.rotate_left(32)).to_le_bytes());
        n[8..].copy_from_slice(&(ctr as u32).to_le_bytes());
        n
    }

    /// Verifies and re-installs a sealed page the OS fetched back (§6.2
    /// demand paging, fault half). `staging_gfn` holds the sealed bytes;
    /// `dest_gfn` is the fresh frame donated for the plaintext.
    ///
    /// # Errors
    ///
    /// Refused on integrity/freshness mismatch (rollback, splicing, or
    /// bit-rot) — the enclave page is *not* installed.
    pub fn page_in(
        &mut self,
        monitor: &mut Monitor,
        hv: &mut Hypervisor,
        id: u64,
        vaddr: u64,
        staging_gfn: u64,
        dest_gfn: u64,
    ) -> Result<(), OsError> {
        let crypt = hv.machine.cost().crypt_page;
        let enclave = self.enclave_mut(id)?;
        let meta = enclave.sealed.get(&vaddr).ok_or(Refusal::PageNotSealed)?.clone();
        let mut page = [0u8; PAGE_SIZE];
        hv.machine.read_into(Vmpl::Vmpl1, gpa_of(staging_gfn), &mut page)?;
        ChaCha20::new(&enclave.seal_key).apply_keystream(
            &Self::nonce(vaddr, meta.ctr),
            1,
            &mut page,
        );
        let mut mac = HmacSha256::new(&enclave.seal_key);
        mac.update(&vaddr.to_le_bytes());
        mac.update(&meta.ctr.to_le_bytes());
        mac.update(&page);
        if !veil_crypto::ct::eq(&mac.finalize(), &meta.tag) {
            return Err(Refusal::SealInvalid.into());
        }
        hv.machine.charge(CostCategory::Other, crypt);

        // Install: protect the destination frame, copy plaintext in, map.
        hv.machine.rmpadjust(
            Vmpl::Vmpl0,
            dest_gfn,
            Vmpl::Vmpl2,
            VmplPerms::rw().union(VmplPerms::USER_EXEC),
        )?;
        hv.machine.rmpadjust(Vmpl::Vmpl0, dest_gfn, Vmpl::Vmpl3, VmplPerms::empty())?;
        hv.machine.write(Vmpl::Vmpl1, gpa_of(dest_gfn), &page)?;
        let mut free: Vec<u64> = Vec::new();
        match enclave.aspace.map(
            &mut hv.machine,
            Vmpl::Vmpl0,
            &mut free,
            vaddr,
            dest_gfn,
            meta.flags,
        ) {
            Ok(()) => {}
            Err(veil_snp::pt::PtError::NoFrames) => {
                // Table level missing: pull monitor frames and retry.
                for _ in 0..4 {
                    free.push(monitor.alloc_mon()?);
                }
                enclave
                    .aspace
                    .map(&mut hv.machine, Vmpl::Vmpl0, &mut free, vaddr, dest_gfn, meta.flags)
                    .map_err(OsError::Pt)?;
                for gfn in free {
                    monitor.free_mon(gfn);
                }
            }
            Err(e) => return Err(OsError::Pt(e)),
        }
        enclave.frames.insert(vaddr, dest_gfn);
        enclave.sealed.remove(&vaddr);
        monitor.protect_frame(dest_gfn);
        Ok(())
    }

    /// §7's multi-threading extension, implemented: creates a `Dom_ENC`
    /// VMSA for the enclave on `vcpu` — synchronized with the enclave's
    /// protected page tables — so the enclave thread can run there. The
    /// OS scheduler requests this through the monitor (`EncAddThread`).
    ///
    /// # Errors
    ///
    /// Refused for unknown enclaves, duplicate threads, or a `ghcb_gfn`
    /// that is not a shared page.
    pub fn add_thread(
        &mut self,
        monitor: &mut Monitor,
        hv: &mut Hypervisor,
        id: u64,
        vcpu: u32,
        ghcb_gfn: u64,
    ) -> Result<u64, OsError> {
        if Ghcb::at(&hv.machine, ghcb_gfn).is_none() {
            return Err(Refusal::GhcbNotShared.into());
        }
        let (base_vaddr, root_gfn) = {
            let e = self.enclaves.get(&id).ok_or(Refusal::NoEnclave)?;
            if e.threads.contains_key(&vcpu) {
                return Err(Refusal::ThreadExists.into());
            }
            (e.base_vaddr, e.aspace.root_gfn())
        };
        let vmsa_gfn = monitor.create_domain_vmsa(hv, vcpu, Domain::Enc)?;
        {
            let vmsa = hv.machine.vmsa_mut(vmsa_gfn).expect("created");
            // Synchronized state: same entry, same protected tables.
            vmsa.regs.rip = base_vaddr;
            vmsa.regs.cr3 = root_gfn;
        }
        hv.register_domain_vmsa(vcpu, Vmpl::Vmpl2, vmsa_gfn);
        self.enclave_mut(id)?.threads.insert(vcpu, (vmsa_gfn, ghcb_gfn));
        Ok(vmsa_gfn)
    }

    /// Synchronizes an OS change to a *non-enclave* mapping into the
    /// protected tables (mprotect/mmap/munmap on shared regions, §6.2).
    ///
    /// # Errors
    ///
    /// Enclave-range addresses are refused — only the enclave itself may
    /// change those (via its GHCB).
    pub fn perm_sync(
        &mut self,
        hv: &mut Hypervisor,
        id: u64,
        vaddr: u64,
        pte_flags: u64,
    ) -> Result<(), OsError> {
        let enclave = self.enclave_mut(id)?;
        if enclave.contains(vaddr) {
            return Err(Refusal::EnclaveRegionLocked.into());
        }
        let flags = PteFlags::from_bits_truncate(pte_flags);
        enclave.aspace.protect(&mut hv.machine, Vmpl::Vmpl0, vaddr, flags).map_err(OsError::Pt)?;
        Ok(())
    }

    /// Mirrors an OS mapping change (mmap/munmap of shared regions) into
    /// the protected tables. For `map = true` the frames are looked up in
    /// the *OS* tables and must not be protected memory.
    ///
    /// # Errors
    ///
    /// Refused for enclave-range addresses or protected frames.
    pub fn map_sync(
        &mut self,
        monitor: &mut Monitor,
        hv: &mut Hypervisor,
        id: u64,
        base_vaddr: u64,
        pages: u64,
        map: bool,
    ) -> Result<(), OsError> {
        let enclave = self.enclave_mut(id)?;
        for i in 0..pages {
            let vaddr = base_vaddr + i * PAGE_SIZE as u64;
            if enclave.contains(vaddr) {
                return Err(Refusal::EnclaveRegionLocked.into());
            }
            if map {
                let os_aspace = AddressSpace::from_root(enclave.os_cr3_gfn);
                let (pfn, flags) = os_aspace.translate(&hv.machine, vaddr).map_err(OsError::Pt)?;
                monitor.sanitize_gfns(&hv.machine, &[pfn])?;
                let mut free: Vec<u64> = Vec::new();
                match enclave.aspace.map(&mut hv.machine, Vmpl::Vmpl0, &mut free, vaddr, pfn, flags)
                {
                    Ok(()) => {}
                    Err(veil_snp::pt::PtError::NoFrames) => {
                        for _ in 0..4 {
                            free.push(monitor.alloc_mon()?);
                        }
                        enclave
                            .aspace
                            .map(&mut hv.machine, Vmpl::Vmpl0, &mut free, vaddr, pfn, flags)
                            .map_err(OsError::Pt)?;
                        for gfn in free {
                            monitor.free_mon(gfn);
                        }
                    }
                    Err(veil_snp::pt::PtError::AlreadyMapped { .. }) => {}
                    Err(e) => return Err(OsError::Pt(e)),
                }
            } else {
                let _ = enclave.aspace.unmap(&mut hv.machine, Vmpl::Vmpl0, vaddr);
            }
        }
        Ok(())
    }

    /// §10's Chancel-style extension, implemented (half 1): an enclave
    /// *offers* a region of its own memory to a named peer. Nothing is
    /// mapped until the peer accepts — sharing requires mutual trust.
    /// Both halves arrive over the enclaves' own GHCBs (the OS has no
    /// request that can trigger them).
    ///
    /// # Errors
    ///
    /// Refused if the region is not fully resident enclave memory.
    pub fn offer_share(
        &mut self,
        id: u64,
        peer_id: u64,
        vaddr: u64,
        pages: u64,
    ) -> Result<(), OsError> {
        let enclave = self.enclave_mut(id)?;
        for i in 0..pages {
            let va = vaddr + i * PAGE_SIZE as u64;
            if !enclave.contains(va) || !enclave.frames.contains_key(&va) {
                return Err(Refusal::PageNotResident.into());
            }
        }
        self.share_offers.retain(|o| !(o.owner == id && o.peer == peer_id));
        self.share_offers.push(ShareOffer { owner: id, peer: peer_id, vaddr, pages });
        Ok(())
    }

    /// Chancel-style sharing (half 2): the peer accepts an outstanding
    /// offer; the owner's frames are mapped into the peer's protected
    /// tables at `map_at` (peer-chosen, outside its own enclave range).
    /// Returns the mapped base.
    ///
    /// # Errors
    ///
    /// Refused without a matching offer, or if `map_at` collides with
    /// existing peer mappings.
    pub fn accept_share(
        &mut self,
        monitor: &mut Monitor,
        hv: &mut Hypervisor,
        id: u64,
        owner_id: u64,
        map_at: u64,
    ) -> Result<u64, OsError> {
        let offer_pos = self
            .share_offers
            .iter()
            .position(|o| o.owner == owner_id && o.peer == id)
            .ok_or(Refusal::NoShareOffer)?;
        let offer = self.share_offers.remove(offer_pos);
        let pairs: Vec<(u64, u64)> = {
            let owner = self.enclave_mut(owner_id)?;
            (0..offer.pages)
                .map(|i| {
                    let src = offer.vaddr + i * PAGE_SIZE as u64;
                    (map_at + i * PAGE_SIZE as u64, owner.frames[&src])
                })
                .collect()
        };
        let peer = self.enclave_mut(id)?;
        if pairs.iter().any(|(va, _)| peer.contains(*va)) {
            return Err(Refusal::EnclaveRegionLocked.into());
        }
        for (va, pfn) in &pairs {
            let mut free: Vec<u64> = Vec::new();
            match peer.aspace.map(
                &mut hv.machine,
                Vmpl::Vmpl0,
                &mut free,
                *va,
                *pfn,
                PteFlags::user_data(),
            ) {
                Ok(()) => {}
                Err(veil_snp::pt::PtError::NoFrames) => {
                    for _ in 0..4 {
                        free.push(monitor.alloc_mon()?);
                    }
                    peer.aspace
                        .map(
                            &mut hv.machine,
                            Vmpl::Vmpl0,
                            &mut free,
                            *va,
                            *pfn,
                            PteFlags::user_data(),
                        )
                        .map_err(OsError::Pt)?;
                    for gfn in free {
                        monitor.free_mon(gfn);
                    }
                }
                Err(e) => return Err(OsError::Pt(e)),
            }
        }
        Ok(map_at)
    }

    /// Tears down an enclave: scrubs its memory, restores OS access,
    /// releases the cloned tables and the VMSA.
    ///
    /// # Errors
    ///
    /// Unknown handles are refused.
    pub fn destroy(
        &mut self,
        monitor: &mut Monitor,
        hv: &mut Hypervisor,
        id: u64,
    ) -> Result<(), OsError> {
        let enclave = self.enclaves.remove(&id).ok_or(Refusal::NoEnclave)?;
        for (_, pfn) in enclave.frames {
            // Confidentiality: scrub before the OS regains access.
            hv.machine.write(Vmpl::Vmpl1, gpa_of(pfn), &[0u8; PAGE_SIZE])?;
            hv.machine.rmpadjust(Vmpl::Vmpl0, pfn, Vmpl::Vmpl2, VmplPerms::empty())?;
            hv.machine.rmpadjust(Vmpl::Vmpl0, pfn, Vmpl::Vmpl3, VmplPerms::all())?;
            monitor.unprotect_frame(pfn);
        }
        for gfn in enclave.pt_frames {
            hv.machine.write(Vmpl::Vmpl0, gpa_of(gfn), &[0u8; PAGE_SIZE])?;
            monitor.unprotect_frame(gfn);
            monitor.free_mon(gfn);
        }
        for (_, (vmsa_gfn, _)) in enclave.threads {
            monitor.destroy_domain_vmsa(hv, vmsa_gfn)?;
        }
        Ok(())
    }

    /// Seals the enclave measurement for the remote user over the secure
    /// channel (enclave attestation, §6.2).
    pub fn report_measurement(&self, id: u64, channel: &mut SecureChannel) -> Option<Vec<u8>> {
        let e = self.enclaves.get(&id)?;
        let mut msg = Vec::with_capacity(40);
        msg.extend_from_slice(&id.to_le_bytes());
        msg.extend_from_slice(&e.measurement.0);
        Some(channel.seal(&msg))
    }

    /// Enclave entry: the untrusted application requests a switch to
    /// `Dom_ENC` through the user-mapped GHCB (§6.2). The caller must
    /// have loaded the enclave GHCB into the VCPU's GHCB MSR (the OS does
    /// this when scheduling the process).
    ///
    /// # Errors
    ///
    /// Hypervisor refusals (missing VMSA, scope violation) surface as
    /// monitor errors; a missing GHCB crashes the CVM (by design).
    pub fn enter(&mut self, hv: &mut Hypervisor, id: u64) -> Result<(), OsError> {
        let vcpu = self.primary_vcpu(id)?;
        self.crossing(hv, id, vcpu, Vmpl::Vmpl3, Vmpl::Vmpl2)
    }

    /// Enclave exit back to the untrusted application.
    ///
    /// # Errors
    ///
    /// See [`VeilSEnc::enter`].
    pub fn exit(&mut self, hv: &mut Hypervisor, id: u64) -> Result<(), OsError> {
        let vcpu = self.primary_vcpu(id)?;
        self.crossing(hv, id, vcpu, Vmpl::Vmpl2, Vmpl::Vmpl3)
    }

    /// Entry on a specific thread's VCPU (multi-threaded enclaves).
    ///
    /// # Errors
    ///
    /// See [`VeilSEnc::enter`]; also refused if no thread exists there.
    pub fn enter_on(&mut self, hv: &mut Hypervisor, id: u64, vcpu: u32) -> Result<(), OsError> {
        self.crossing(hv, id, vcpu, Vmpl::Vmpl3, Vmpl::Vmpl2)
    }

    /// Exit on a specific thread's VCPU.
    ///
    /// # Errors
    ///
    /// See [`VeilSEnc::enter_on`].
    pub fn exit_on(&mut self, hv: &mut Hypervisor, id: u64, vcpu: u32) -> Result<(), OsError> {
        self.crossing(hv, id, vcpu, Vmpl::Vmpl2, Vmpl::Vmpl3)
    }

    fn primary_vcpu(&self, id: u64) -> Result<u32, OsError> {
        self.enclaves.get(&id).map(|e| e.vcpu).ok_or(Refusal::NoEnclave.into())
    }

    fn crossing(
        &mut self,
        hv: &mut Hypervisor,
        id: u64,
        vcpu: u32,
        from: Vmpl,
        to: Vmpl,
    ) -> Result<(), OsError> {
        let ghcb_gfn = {
            let e = self.enclaves.get(&id).ok_or(Refusal::NoEnclave)?;
            e.thread(vcpu).ok_or(Refusal::NoThread)?.1
        };
        let ghcb = Ghcb::at(&hv.machine, ghcb_gfn).ok_or(Refusal::GhcbNotShared)?;
        ghcb.write_request(&mut hv.machine, from, GhcbExit::DomainSwitch, to.index() as u64, 0)?;
        match hv.vmgexit(vcpu, true)? {
            HvResponse::Switched { vmpl, .. } if vmpl == to => {
                self.crossings += 1;
                Ok(())
            }
            other => Err(Refusal::of_response(&other).into()),
        }
    }

    /// Number of live enclaves.
    pub fn count(&self) -> usize {
        self.enclaves.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CvmBuilder;

    #[test]
    fn unknown_enclave_ids_refused_everywhere() {
        let mut cvm = CvmBuilder::new().frames(2048).build().unwrap();
        let enc = &mut cvm.gate.services.enc;
        assert!(enc.enclave(42).is_none());
        assert!(enc.page_out(&mut cvm.gate.monitor, &mut cvm.hv, 42, 0x5000_0000).is_err());
        assert!(enc.perm_sync(&mut cvm.hv, 42, 0x1000, 0x7).is_err());
        assert!(enc.destroy(&mut cvm.gate.monitor, &mut cvm.hv, 42).is_err());
        assert!(enc.enter(&mut cvm.hv, 42).is_err());
        assert!(enc
            .report_measurement(42, &mut veil_core::remote::SecureChannel::new([1; 32]))
            .is_none());
        assert!(enc.offer_share(42, 43, 0x5000_0000, 1).is_err());
    }

    #[test]
    fn finalize_refuses_unshared_ghcb_and_counts() {
        let mut cvm = CvmBuilder::new().frames(2048).build().unwrap();
        let private = cvm.gate.monitor.layout.kernel_pool.start;
        let (monitor, enc) = (&mut cvm.gate.monitor, &mut cvm.gate.services.enc);
        let r = enc.finalize(monitor, &mut cvm.hv, 0, 1, private, 0x5000_0000, 4096, private);
        assert!(r.is_err());
        assert_eq!(enc.rejected, 1);
        assert_eq!(enc.count(), 0);
    }

    #[test]
    fn finalize_refuses_unmapped_range() {
        let mut cvm = CvmBuilder::new().frames(2048).build().unwrap();
        // A GHCB that IS shared, but an empty page-table root: no
        // mappings in the enclave range.
        let ghcb = cvm.gate.monitor.layout.kernel_ghcb_gfns(1)[0];
        let root = {
            let (kernel, _) = cvm.kctx();
            kernel.frames.alloc().unwrap()
        };
        cvm.hv.machine.write(Vmpl::Vmpl3, gpa_of(root), &[0u8; PAGE_SIZE]).unwrap();
        let (monitor, enc) = (&mut cvm.gate.monitor, &mut cvm.gate.services.enc);
        let r = enc.finalize(monitor, &mut cvm.hv, 0, 1, root, 0x5000_0000, 4096, ghcb);
        assert!(r.is_err());
        assert_eq!(enc.rejected, 1);
    }

    #[test]
    fn nonce_is_unique_per_vaddr_and_counter() {
        let a = VeilSEnc::nonce(0x5000_0000, 1);
        let b = VeilSEnc::nonce(0x5000_0000, 2);
        let c = VeilSEnc::nonce(0x5000_1000, 1);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(b, c);
    }
}
