//! # Veil — a protected services framework for confidential virtual machines
//!
//! Facade crate for the Veil workspace: re-exports every subsystem so that
//! examples and integration tests can use one import root. See the README
//! for the architecture overview and DESIGN.md for the full system
//! inventory.
//!
//! ```
//! use veil::prelude::*;
//! use veil::snp::perms::Vmpl;
//!
//! // One CVM type: the same machine and kernel, under Veil or natively.
//! let cvm: Cvm = CvmBuilder::new().vcpus(2).build().expect("boot");
//! assert_eq!(cvm.kernel.vmpl, Vmpl::Vmpl3);
//! let native: NativeCvm = CvmBuilder::new().vcpus(2).build_native().expect("boot");
//! assert_eq!(native.kernel.vmpl, Vmpl::Vmpl0);
//! ```

#![forbid(unsafe_code)]

pub use veil_core as core;
pub use veil_crypto as crypto;
pub use veil_hv as hv;
pub use veil_metrics as metrics;
pub use veil_os as os;
pub use veil_sdk as sdk;
pub use veil_services as services;
pub use veil_snp as snp;
pub use veil_trace as trace;
pub use veil_workloads as workloads;

/// Common imports for examples and tests.
pub mod prelude {
    pub use veil_core::cvm::{CvmBuilder as CoreCvmBuilder, GenericCvm, NativeCvm};
    pub use veil_core::remote::{RemoteUser, SecureChannel};
    pub use veil_os::sys::{OpenFlags, Sys, Whence};
    pub use veil_services::{Cvm, CvmBuilder, VeilServices};
}
