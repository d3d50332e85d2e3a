//! Model-checking configurations, abstract states, and canonical keys.
//!
//! The exhaustive checker cannot enumerate the concrete [`World`] (it
//! contains memory contents, cycle counters, and trace state); it
//! enumerates an *abstract* state instead: the RMP entry and VMSA
//! liveness of each model gfn, the executing VMPL, the halt latch, the
//! tracked policy knobs, and the VA-slot mapping shape. Every verdict
//! the differential harness compares is a function of this abstraction
//! (see `DESIGN.md` §11 for the soundness argument), so exploring one
//! concrete representative per abstract state covers the whole graph.
//!
//! Canonicalization quotients two symmetries out of the search space:
//! model gfns are interchangeable labels (the alphabet treats each
//! identically), and a configuration may declare one VMPL pair
//! symmetric when its alphabet is closed under swapping the pair.

use veil_snp::perms::Vmpl;
use veil_snp::rmp::PageState;

use crate::exec::{World, WorldConfig};
use crate::ops::{AdversaryOp, PolicyKnob};

/// Shape of one exhaustive exploration: which gfns, VMPLs, permission
/// values, policy knobs, and GHCB flows the alphabet ranges over.
#[derive(Debug, Clone)]
pub struct ModelConfig {
    /// Configuration name (selects goldens and CLI `--config`).
    pub name: &'static str,
    /// Machine frames (model gfns must lie below, reserved at boot).
    pub frames: u64,
    /// The interchangeable model gfns the alphabet targets.
    pub model_gfns: Vec<u64>,
    /// VMPLs executing `PVALIDATE`/`RMPADJUST`/VMSA instructions.
    pub instr_vmpls: Vec<Vmpl>,
    /// VMPLs performing accesses, writing GHCB requests, and appearing
    /// as `RMPADJUST` targets.
    pub access_vmpls: Vec<Vmpl>,
    /// Raw permission nibbles `RMPADJUST` ops grant.
    pub perm_values: Vec<u8>,
    /// Policy knobs the alphabet may flip (untracked knobs stay at
    /// their defaults and are excluded from the state key).
    pub policy_knobs: Vec<PolicyKnob>,
    /// VA slots the map/unmap/protect/virt ops churn.
    pub va_slots: u64,
    /// Domain-switch destinations.
    pub switch_targets: Vec<Vmpl>,
    /// Include one past-the-end gfn so out-of-range verdicts stay
    /// covered.
    pub include_out_of_range: bool,
    /// Include the asynchronous-exit op (excluded from symmetric
    /// configurations: its VMPL-2 relay special case is not
    /// swap-equivariant).
    pub include_auto_exit: bool,
    /// A VMPL pair declared symmetric: canonical keys additionally
    /// minimize over swapping the pair. Only sound when the alphabet is
    /// closed under the swap — asserted by [`ModelConfig::validate`].
    pub symmetric_vmpls: Option<(Vmpl, Vmpl)>,
}

impl ModelConfig {
    /// The smallest useful configuration: 1 model gfn, VMPL-0 vs
    /// VMPL-3, all-or-nothing permissions. Exhausted in the tier-1
    /// suite (debug build) in well under a second.
    pub fn tiny() -> Self {
        ModelConfig {
            name: "tiny",
            frames: 24,
            model_gfns: vec![22],
            instr_vmpls: vec![Vmpl::Vmpl0, Vmpl::Vmpl3],
            access_vmpls: vec![Vmpl::Vmpl0, Vmpl::Vmpl3],
            perm_values: vec![0b0000, 0b1111],
            policy_knobs: vec![],
            va_slots: 1,
            switch_targets: vec![Vmpl::Vmpl3],
            include_out_of_range: true,
            include_auto_exit: true,
            symmetric_vmpls: None,
        }
    }

    /// The CI configuration the issue pins goldens for: 2 model gfns,
    /// 2 VMPLs, policy knobs that make the interrupt-suppression halt
    /// reachable, and VMPL-2 as a switch destination.
    pub fn ci() -> Self {
        ModelConfig {
            name: "ci",
            frames: 24,
            model_gfns: vec![22, 23],
            instr_vmpls: vec![Vmpl::Vmpl0, Vmpl::Vmpl3],
            access_vmpls: vec![Vmpl::Vmpl0, Vmpl::Vmpl3],
            perm_values: vec![0b0000, 0b1111],
            policy_knobs: vec![PolicyKnob::RelayInterrupts, PolicyKnob::RefuseSwitches],
            va_slots: 1,
            switch_targets: vec![Vmpl::Vmpl2, Vmpl::Vmpl3],
            include_out_of_range: true,
            include_auto_exit: true,
            symmetric_vmpls: None,
        }
    }

    /// The mutation self-test configuration: adds VMPL-1 as an
    /// instruction executor so the permission-escalation hole is
    /// reachable (VMPL-1 granting VMPL-3 permissions it does not hold).
    pub fn mutation() -> Self {
        ModelConfig {
            name: "mutation",
            frames: 24,
            model_gfns: vec![22],
            instr_vmpls: vec![Vmpl::Vmpl0, Vmpl::Vmpl1],
            access_vmpls: vec![Vmpl::Vmpl1, Vmpl::Vmpl3],
            perm_values: vec![0b0000, 0b1111],
            policy_knobs: vec![],
            va_slots: 1,
            switch_targets: vec![Vmpl::Vmpl3],
            include_out_of_range: false,
            include_auto_exit: true,
            symmetric_vmpls: None,
        }
    }

    /// A configuration whose alphabet is closed under swapping VMPL-2
    /// and VMPL-3, for the VMPL-symmetry quotient: instructions only
    /// from VMPL-0, accesses and switches from/to the symmetric pair,
    /// no asynchronous exits (their VMPL-2 relay case is asymmetric).
    pub fn symmetric() -> Self {
        ModelConfig {
            name: "symmetric",
            frames: 24,
            model_gfns: vec![22, 23],
            instr_vmpls: vec![Vmpl::Vmpl0],
            access_vmpls: vec![Vmpl::Vmpl2, Vmpl::Vmpl3],
            perm_values: vec![0b0000, 0b1111],
            policy_knobs: vec![],
            va_slots: 1,
            switch_targets: vec![Vmpl::Vmpl2, Vmpl::Vmpl3],
            include_out_of_range: false,
            include_auto_exit: false,
            symmetric_vmpls: Some((Vmpl::Vmpl2, Vmpl::Vmpl3)),
        }
    }

    /// Looks a named configuration up (CLI `--config`).
    pub fn by_name(name: &str) -> Option<ModelConfig> {
        match name {
            "tiny" => Some(ModelConfig::tiny()),
            "ci" => Some(ModelConfig::ci()),
            "mutation" => Some(ModelConfig::mutation()),
            "symmetric" => Some(ModelConfig::symmetric()),
            _ => None,
        }
    }

    /// The [`WorldConfig`] that boots this model's worlds: model gfns
    /// reserved (pristine shared), observation off so per-edge clones
    /// stay cheap.
    pub fn world_config(&self) -> WorldConfig {
        WorldConfig { frames: self.frames, reserved: self.model_gfns.clone(), observe: false }
    }

    /// The VMPL the witness matrix treats as the untrusted attacker
    /// (the least privileged access level).
    pub fn untrusted_vmpl(&self) -> Vmpl {
        *self.access_vmpls.iter().max().expect("non-empty access_vmpls")
    }

    /// Structural sanity: non-empty axes, in-range gfns, and — when a
    /// symmetric VMPL pair is declared — closure of the alphabet under
    /// the swap.
    ///
    /// # Panics
    ///
    /// Panics on a malformed configuration (a harness bug).
    pub fn validate(&self) {
        assert!(!self.model_gfns.is_empty(), "{}: no model gfns", self.name);
        assert!(!self.instr_vmpls.is_empty() && !self.access_vmpls.is_empty());
        assert!(!self.perm_values.is_empty() && !self.switch_targets.is_empty());
        assert!(self.va_slots >= 1);
        assert!(self.model_gfns.iter().all(|&g| g < self.frames));
        if let Some((a, b)) = self.symmetric_vmpls {
            let closed = |set: &[Vmpl]| set.contains(&a) == set.contains(&b);
            assert!(
                closed(&self.access_vmpls) && closed(&self.switch_targets),
                "{}: alphabet not closed under the {a}/{b} swap",
                self.name
            );
            assert!(
                !self.instr_vmpls.contains(&a) && !self.instr_vmpls.contains(&b),
                "{}: symmetric VMPLs may not execute dominance-sensitive instructions",
                self.name
            );
            assert!(!self.include_auto_exit, "{}: AutoExit is not swap-equivariant", self.name);
        }
    }

    /// The full deterministic op alphabet. Edge `i` of every state is
    /// `alphabet()[i]`, which is what `--replay i,j,k` indexes into.
    pub fn alphabet(&self) -> Vec<AdversaryOp> {
        self.validate();
        let mut ops = Vec::new();
        let mut gfns = self.model_gfns.clone();
        if self.include_out_of_range {
            gfns.push(self.frames);
        }
        for &gfn in &gfns {
            for &vmpl in &self.access_vmpls {
                ops.push(AdversaryOp::GuestRead { vmpl, gfn });
                ops.push(AdversaryOp::GuestWrite { vmpl, gfn });
                ops.push(AdversaryOp::GuestExec { vmpl, user: true, gfn });
                ops.push(AdversaryOp::GuestExec { vmpl, user: false, gfn });
            }
            ops.push(AdversaryOp::HvRead { gfn });
            ops.push(AdversaryOp::HvWrite { gfn });
            for &vmpl in &self.instr_vmpls {
                ops.push(AdversaryOp::Pvalidate { vmpl, gfn, validate: true });
                ops.push(AdversaryOp::Pvalidate { vmpl, gfn, validate: false });
            }
            for &executing in &self.instr_vmpls {
                for &target in &self.access_vmpls {
                    for &perms in &self.perm_values {
                        ops.push(AdversaryOp::Rmpadjust { executing, gfn, target, perms });
                    }
                }
            }
            ops.push(AdversaryOp::Assign { gfn });
            ops.push(AdversaryOp::Reclaim { gfn });
            for &vmpl in &self.access_vmpls {
                ops.push(AdversaryOp::Psc { vmpl, gfn, to_private: true });
                ops.push(AdversaryOp::Psc { vmpl, gfn, to_private: false });
            }
            for &executing in &self.instr_vmpls {
                ops.push(AdversaryOp::VmsaCreate { executing, gfn, target: self.access_vmpls[0] });
                ops.push(AdversaryOp::VmsaDestroy { executing, gfn });
            }
        }
        for &vmpl in &self.access_vmpls {
            for &target in &self.switch_targets {
                ops.push(AdversaryOp::SwitchReq { vmpl, target, user_ghcb: false });
                ops.push(AdversaryOp::SwitchReq { vmpl, target, user_ghcb: true });
            }
        }
        if self.include_auto_exit {
            ops.push(AdversaryOp::AutoExit);
        }
        for &knob in &self.policy_knobs {
            ops.push(AdversaryOp::SetPolicy { knob, on: true });
            ops.push(AdversaryOp::SetPolicy { knob, on: false });
        }
        for slot in 0..self.va_slots {
            ops.push(AdversaryOp::Map { slot, frame: 0, writable: true });
            ops.push(AdversaryOp::Map { slot, frame: 0, writable: false });
            ops.push(AdversaryOp::Unmap { slot });
            ops.push(AdversaryOp::Protect { slot, writable: true });
            ops.push(AdversaryOp::Protect { slot, writable: false });
            ops.push(AdversaryOp::ReadVirt { slot });
            ops.push(AdversaryOp::WriteVirt { slot, byte: 0xAB });
        }
        ops
    }
}

/// Abstract view of one model gfn: the packed RMP entry
/// ([`veil_snp::rmp::RmpEntry::packed`]) plus VMSA liveness.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct PageAbs {
    /// Packed RMP entry bits (state, VMSA attribute, per-VMPL perms).
    pub packed: u32,
    /// The page is a live (runnable) VMSA.
    pub live: bool,
}

impl PageAbs {
    /// Decoded page state.
    pub fn state(&self) -> PageState {
        match self.packed & 0b11 {
            0 => PageState::Shared,
            1 => PageState::AssignedUnvalidated,
            _ => PageState::Validated,
        }
    }

    /// The RMP VMSA attribute bit.
    pub fn vmsa(&self) -> bool {
        self.packed & 0b100 != 0
    }

    /// The permission nibble of `vmpl`.
    pub fn perm(&self, vmpl: Vmpl) -> u8 {
        ((self.packed >> (4 + 4 * vmpl.index())) & 0xF) as u8
    }

    fn with_vmpls_swapped(self, a: Vmpl, b: Vmpl) -> PageAbs {
        let (sa, sb) = (4 + 4 * a.index(), 4 + 4 * b.index());
        let (na, nb) = ((self.packed >> sa) & 0xF, (self.packed >> sb) & 0xF);
        let cleared = self.packed & !((0xF << sa) | (0xF << sb));
        PageAbs { packed: cleared | (nb << sa) | (na << sb), live: self.live }
    }
}

/// The abstract machine state the checker enumerates. Everything a
/// verdict can depend on is here; everything else (data bytes, cycle
/// counters, PTE accessed/dirty bits) is quotiented away — see
/// `DESIGN.md` §11 for why that is sound.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct AbstractState {
    /// One entry per model gfn, in `model_gfns` order.
    pub pages: Vec<PageAbs>,
    /// VCPU 0's executing VMPL.
    pub current: u8,
    /// The halt latch (reason rendered, `None` when running).
    pub halted: Option<String>,
    /// Tracked policy-knob values, in `policy_knobs` order.
    pub policy: Vec<bool>,
    /// VA-slot shapes (`0` unmapped / `1` read-only / `2` writable).
    pub slots: Vec<u8>,
}

impl AbstractState {
    /// Reads the abstract state out of a concrete world.
    pub fn extract(world: &World, cfg: &ModelConfig) -> AbstractState {
        let m = &world.hv.machine;
        let live: Vec<u64> = m.vmsa_gfns();
        let pages = cfg
            .model_gfns
            .iter()
            .map(|&gfn| PageAbs {
                packed: m.rmp().entry(gfn).expect("model gfn in range").packed(),
                live: live.contains(&gfn),
            })
            .collect();
        let policy = cfg
            .policy_knobs
            .iter()
            .map(|knob| match knob {
                PolicyKnob::RelayInterrupts => world.hv.policy.relay_interrupts_to_unt,
                PolicyKnob::TamperVmsa => world.hv.policy.tamper_vmsa_on_switch,
                PolicyKnob::EnclaveGhcbScope => world.hv.policy.enforce_enclave_ghcb_scope,
                PolicyKnob::RefuseSwitches => world.hv.policy.refuse_switches,
                PolicyKnob::MisrouteSwitches => world.hv.policy.misroute_switch_to.is_some(),
            })
            .collect();
        AbstractState {
            pages,
            current: world.hv.vcpu(0).expect("vcpu 0").current_vmpl.index() as u8,
            halted: m.halted().map(|r| format!("{r:?}")),
            policy,
            slots: (0..cfg.va_slots).map(|s| world.slot_state(s)).collect(),
        }
    }

    /// A stable injective byte encoding (the canonical key is the
    /// minimum encoding over the symmetry group).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.pages.len() * 5 + 8);
        for p in &self.pages {
            out.extend_from_slice(&p.packed.to_le_bytes());
            out.push(p.live as u8);
        }
        out.push(self.current);
        match &self.halted {
            None => out.push(0),
            Some(s) => {
                out.push(1);
                out.extend_from_slice(&(s.len() as u32).to_le_bytes());
                out.extend_from_slice(s.as_bytes());
            }
        }
        out.extend(self.policy.iter().map(|&b| b as u8));
        out.extend_from_slice(&self.slots);
        out
    }

    /// The state with pages relabelled: `new.pages[i] = pages[perm[i]]`.
    pub fn with_pages_permuted(&self, perm: &[usize]) -> AbstractState {
        let mut s = self.clone();
        s.pages = perm.iter().map(|&i| self.pages[i]).collect();
        s
    }

    /// The state under the `a`/`b` VMPL swap: permission nibbles swap in
    /// every page, and the executing VMPL follows.
    pub fn with_vmpls_swapped(&self, a: Vmpl, b: Vmpl) -> AbstractState {
        let mut s = self.clone();
        s.pages = self.pages.iter().map(|p| p.with_vmpls_swapped(a, b)).collect();
        if s.current == a.index() as u8 {
            s.current = b.index() as u8;
        } else if s.current == b.index() as u8 {
            s.current = a.index() as u8;
        }
        s
    }

    /// The canonical key: the minimum [`encode`](Self::encode) over all
    /// model-gfn relabellings × the optional symmetric-VMPL swap. Two
    /// states get equal keys iff one is reachable from the other by
    /// those symmetries (encoding injectivity makes the "only if"
    /// direction hold).
    pub fn canonical_key(&self, cfg: &ModelConfig) -> Vec<u8> {
        let mut best: Option<Vec<u8>> = None;
        for perm in permutations(self.pages.len()) {
            let relabelled = self.with_pages_permuted(&perm);
            let mut candidates = vec![relabelled.encode()];
            if let Some((a, b)) = cfg.symmetric_vmpls {
                candidates.push(relabelled.with_vmpls_swapped(a, b).encode());
            }
            for c in candidates {
                if best.as_ref().is_none_or(|b| c < *b) {
                    best = Some(c);
                }
            }
        }
        best.expect("at least the identity permutation")
    }
}

/// All permutations of `0..n` in a deterministic order (n is the model
/// gfn count, 1–3 in practice).
pub fn permutations(n: usize) -> Vec<Vec<usize>> {
    fn go(prefix: &mut Vec<usize>, rest: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
        if rest.is_empty() {
            out.push(prefix.clone());
            return;
        }
        for i in 0..rest.len() {
            let x = rest.remove(i);
            prefix.push(x);
            go(prefix, rest, out);
            prefix.pop();
            rest.insert(i, x);
        }
    }
    let mut out = Vec::new();
    go(&mut Vec::new(), &mut (0..n).collect(), &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtin_configs_validate() {
        for cfg in [
            ModelConfig::tiny(),
            ModelConfig::ci(),
            ModelConfig::mutation(),
            ModelConfig::symmetric(),
        ] {
            cfg.validate();
            assert!(!cfg.alphabet().is_empty());
        }
    }

    #[test]
    fn permutations_counts() {
        assert_eq!(permutations(1).len(), 1);
        assert_eq!(permutations(2).len(), 2);
        assert_eq!(permutations(3).len(), 6);
    }

    #[test]
    fn page_abs_roundtrips_packed_fields() {
        // state=Validated(2), vmsa, perms v0=0xF v3=0x3.
        let packed = 2 | 0b100 | (0xF << 4) | (0x3 << 16);
        let p = PageAbs { packed, live: true };
        assert_eq!(p.state(), PageState::Validated);
        assert!(p.vmsa());
        assert_eq!(p.perm(Vmpl::Vmpl0), 0xF);
        assert_eq!(p.perm(Vmpl::Vmpl3), 0x3);
    }

    #[test]
    fn vmpl_swap_is_an_involution() {
        let p = PageAbs { packed: 2 | (0xF << 4) | (0x5 << 12) | (0xA << 16), live: false };
        let swapped = p.with_vmpls_swapped(Vmpl::Vmpl2, Vmpl::Vmpl3);
        assert_eq!(swapped.perm(Vmpl::Vmpl2), 0xA);
        assert_eq!(swapped.perm(Vmpl::Vmpl3), 0x5);
        assert_eq!(swapped.with_vmpls_swapped(Vmpl::Vmpl2, Vmpl::Vmpl3), p);
    }
}
