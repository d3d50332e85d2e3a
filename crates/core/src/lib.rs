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
//! * [`cvm`] — the generic CVM assembly: launch, the measured-boot check,
//!   VeilMon init, kernel boot, plus the *native* (Veil-less) baseline
//!   used by the evaluation.
//!
//! # Example
//!
//! ```
//! use veil_core::cvm::{CvmBuilder, GenericCvm};
//! use veil_core::service::NoServices;
//!
//! // A Veil CVM with no protected services registered (monitor only).
//! let mut cvm: GenericCvm<NoServices> =
//!     CvmBuilder::new().vcpus(2).build_with(NoServices).expect("boot");
//! assert!(cvm.veil_enabled());
//! assert!(cvm.hv.machine.launch_measurement().is_some());
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
