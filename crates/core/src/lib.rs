//! # Veil core — the security monitor framework
//!
//! This crate is the paper's primary contribution (§5): a trustworthy
//! security-monitor framework inside a confidential VM, built on VMPLs.
//!
//! * [`domain`] — the four *dual-factor privilege domains* (§5.1):
//!   `Dom_MON` (VMPL-0 + CPL-0) for [`monitor::Monitor`] (VeilMon),
//!   `Dom_SER` (VMPL-1 + CPL-0) for protected services, `Dom_ENC`
//!   (VMPL-2 + CPL-3) for enclaves, `Dom_UNT` (VMPL-3) for the OS.
//! * [`layout`] — the CVM physical memory map the boot flow establishes.
//! * [`monitor`] — VeilMon itself: boot-time domain protection, per-domain
//!   VCPU replication (§5.2), privileged-functionality delegation (§5.3),
//!   protected-region tracking and untrusted-pointer sanitization (§8.1).
//! * [`idcb`] — inter-domain communication blocks (§5.2).
//! * [`ring`] — per-VCPU gate request rings for the batched gate path:
//!   queued requests drained under one doorbell-relayed domain switch.
//! * [`gate`] — the kernel-facing [`veil_os::monitor::MonitorChannel`]
//!   implementation: IDCB transcription + hypervisor-relayed domain
//!   switch + dispatch + switch back.
//! * [`service`] — the [`service::ServiceDispatch`] trait protected
//!   services (VeilS-KCI/ENC/LOG, in `veil-services`) plug into.
//! * [`remote`] — the remote user: chain-report verification, the DH
//!   binding check and the secure channel (§5.1).
//! * [`cvm`] — the one CVM type, [`GenericCvm<G>`], generic over the
//!   kernel's channel `G`, and its builder: a Veil boot (launch, the
//!   measured-boot check, VeilMon init, kernel boot at `Dom_UNT`) or the
//!   *native* (Veil-less) baseline the evaluation compares against.
//!
//! # Example
//!
//! ```
//! use veil_core::cvm::{CvmBuilder, NativeCvm, VeilCvm};
//! use veil_core::service::NoServices;
//! use veil_snp::perms::Vmpl;
//!
//! // A Veil CVM with no protected services registered (monitor only).
//! let cvm: VeilCvm<NoServices> = CvmBuilder::new().vcpus(2).build().expect("boot");
//! assert_eq!(cvm.kernel.vmpl, Vmpl::Vmpl3);
//! assert!(cvm.hv.machine.launch_measurement().is_some());
//! // The same machine and kernel without Veil: the kernel owns VMPL-0.
//! let native: NativeCvm = CvmBuilder::<NoServices>::new().vcpus(2).build_native().expect("boot");
//! assert_eq!(native.kernel.vmpl, Vmpl::Vmpl0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cvm;
pub mod domain;
pub mod gate;
pub mod idcb;
pub mod layout;
pub mod monitor;
pub mod remote;
pub mod ring;
pub mod service;

pub use cvm::{CvmBuilder, GenericCvm};
pub use domain::Domain;
pub use monitor::Monitor;
