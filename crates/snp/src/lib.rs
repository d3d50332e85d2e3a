//! Software model of the AMD SEV-SNP security architecture.
//!
//! Veil (ASPLOS'23) builds its security monitor on four SEV-SNP hardware
//! primitives, all modelled here with the access-control semantics the
//! paper's §3 describes:
//!
//! * **Guest memory + RMP** ([`mem`], [`rmp`]) — every guest-physical page
//!   has a reverse-map entry tracking assignment, validation, and per-VMPL
//!   permission masks. Every access is checked; violations raise nested
//!   page faults (`#NPF`).
//! * **VMPL** ([`perms`]) — four privilege levels that complement x86
//!   protection rings. `RMPADJUST` lets a more-privileged VMPL restrict
//!   less-privileged ones; it can never grant itself more.
//! * **VMSA** ([`vmsa`]) — per-VCPU-instance save areas stored in guest
//!   frames marked immutable in the RMP. A VCPU's VMPL is fixed at VMSA
//!   creation, which only VMPL-0 can perform.
//! * **GHCB + VMGEXIT** ([`ghcb`]) — the shared-page protocol for
//!   non-automatic exits to the untrusted hypervisor.
//!
//! The [`machine::Machine`] ties these together and adds the deterministic
//! cycle-cost model ([`cost`]) calibrated to the paper's measured constants
//! (7,135-cycle hypervisor-relayed domain switch, 1,100-cycle plain
//! `VMCALL`), so the evaluation harness reproduces the paper's performance
//! *shapes* without SNP silicon.
//!
//! # Example
//!
//! ```
//! use veil_snp::prelude::*;
//!
//! let mut m = Machine::new(MachineConfig::default());
//! let gfn = 42;
//! m.rmp_assign(gfn).unwrap();
//! m.pvalidate(Vmpl::Vmpl0, gfn, true).unwrap();
//! // VMPL0 restricts the page from VMPL3:
//! m.rmpadjust(Vmpl::Vmpl0, gfn, Vmpl::Vmpl3, VmplPerms::empty()).unwrap();
//! assert!(m.write(Vmpl::Vmpl3, gfn * 4096, b"attack").is_err());
//! assert!(m.write(Vmpl::Vmpl0, gfn * 4096, b"monitor").is_ok());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use veil_metrics as metrics;
pub use veil_trace as trace;

pub mod attest;
pub mod cost;
pub mod fault;
pub mod ghcb;
pub mod machine;
pub mod mem;
pub mod perms;
pub mod pt;
pub mod rmp;
pub mod vcek;
pub mod vmsa;

/// Convenient glob-import of the types nearly every consumer needs.
pub mod prelude {
    pub use crate::cost::{CostCategory, CostModel, CycleAccount};
    pub use crate::fault::{HaltReason, NestedPageFault, SnpError};
    pub use crate::ghcb::{Ghcb, GhcbExit};
    pub use crate::machine::{Machine, MachineConfig};
    pub use crate::mem::{gfn_of, gpa_of, PAGE_SIZE};
    pub use crate::perms::{Cpl, Vmpl, VmplPerms};
    pub use crate::pt::{AddressSpace, PteFlags};
    pub use crate::rmp::{PageState, RmpEntry};
    pub use crate::vcek::{ChainReport, ChainVerifier, DeriveStage, TcbVersion, VerifyError};
    pub use crate::vmsa::Vmsa;
}
