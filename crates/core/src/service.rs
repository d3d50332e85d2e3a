//! The protected-service plug-in interface.
//!
//! Veil is a *framework*: "any service can leverage such protection"
//! (§6). Services implement [`ServiceDispatch`] and are driven by the
//! [`crate::gate::VeilGate`] after it has switched into the trusted
//! domains. The three paper services (VeilS-KCI/ENC/LOG) live in the
//! `veil-services` crate.

use crate::monitor::Monitor;
use veil_hv::Hypervisor;
use veil_os::error::{OsError, Refusal};
use veil_os::monitor::{MonRequest, MonResponse};

/// Information VeilMon hands services at kernel boot (text/data layout
/// for KCI's W⊕X pass).
#[derive(Debug, Clone)]
pub struct KernelHandoff {
    /// Kernel text frames.
    pub kernel_text_gfns: Vec<u64>,
    /// Kernel data frames.
    pub kernel_data_gfns: Vec<u64>,
    /// Vendor key for module signatures.
    pub vendor_key: [u8; 32],
}

/// A bundle of protected services running in `Dom_SER`.
pub trait ServiceDispatch {
    /// One-time initialization after the kernel image is laid out
    /// (KCI's boot-time W⊕X, LOG's storage reservation...).
    ///
    /// # Errors
    ///
    /// A failure here aborts CVM boot.
    fn on_boot(
        &mut self,
        monitor: &mut Monitor,
        hv: &mut Hypervisor,
        handoff: &KernelHandoff,
    ) -> Result<(), OsError>;

    /// Handles one service request (already sanitized for protected-region
    /// pointers by the gate; services re-check anything service-specific).
    ///
    /// # Errors
    ///
    /// [`OsError::Refused`] for requests that fail verification.
    fn dispatch(
        &mut self,
        monitor: &mut Monitor,
        hv: &mut Hypervisor,
        vcpu: u32,
        req: &MonRequest,
    ) -> Result<MonResponse, OsError>;
}

/// A service bundle with nothing in it: every service request is refused.
/// Used for monitor-only CVMs and framework micro-benchmarks.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoServices;

impl ServiceDispatch for NoServices {
    fn on_boot(
        &mut self,
        _monitor: &mut Monitor,
        _hv: &mut Hypervisor,
        _handoff: &KernelHandoff,
    ) -> Result<(), OsError> {
        Ok(())
    }

    fn dispatch(
        &mut self,
        _monitor: &mut Monitor,
        _hv: &mut Hypervisor,
        _vcpu: u32,
        _req: &MonRequest,
    ) -> Result<MonResponse, OsError> {
        Err(Refusal::NoService.into())
    }
}
