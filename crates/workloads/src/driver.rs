//! Drivers: bind a workload to an execution environment.
//!
//! A workload is split into *shielded* sections (the sensitive
//! computation the paper puts in an enclave) and *untrusted* sections
//! (clients, load generators, helpers). [`KernelDriver`] runs both in
//! the same process of a native or a Veil CVM; the enclave drivers run
//! the shielded sections at `Dom_ENC`.

use veil_core::cvm::GenericCvm;
use veil_os::error::Errno;
use veil_os::monitor::MonitorChannel;
use veil_os::process::Pid;
use veil_os::sys::Sys;
use veil_sdk::runtime::park_enclave;
use veil_sdk::{EnclaveRuntime, EnclaveSys};
use veil_services::Cvm;

/// A closure over one section of workload logic.
pub type Section<'s> = &'s mut dyn FnMut(&mut dyn Sys) -> Result<(), Errno>;

/// Binds workload sections to Sys implementations.
pub trait Driver {
    /// Runs a *shielded* section (enclave-resident under VeilS-ENC).
    ///
    /// # Errors
    ///
    /// Propagates section and entry/exit failures.
    fn shielded(&mut self, f: Section<'_>) -> Result<(), Errno>;

    /// Runs an *untrusted* section (client / load generator).
    ///
    /// # Errors
    ///
    /// Propagates section failures.
    fn untrusted(&mut self, f: Section<'_>) -> Result<(), Errno>;

    /// Machine cycles so far (for rate computations).
    fn cycles(&self) -> u64;
}

/// Runs both sections in one process, each syscall straight to the
/// kernel. Over a [`veil_core::cvm::NativeCvm`] this is the native
/// baseline; over a Veil CVM it is the "Veil, no protected service in
/// use" configuration of the §9.1 background benchmark, with the kernel
/// at `Dom_UNT`.
pub struct KernelDriver<'a, G> {
    /// The CVM.
    pub cvm: &'a mut GenericCvm<G>,
    /// Process both sections run in.
    pub pid: Pid,
}

impl<G: MonitorChannel> Driver for KernelDriver<'_, G> {
    fn shielded(&mut self, f: Section<'_>) -> Result<(), Errno> {
        f(&mut self.cvm.sys(self.pid))
    }

    fn untrusted(&mut self, f: Section<'_>) -> Result<(), Errno> {
        f(&mut self.cvm.sys(self.pid))
    }

    fn cycles(&self) -> u64 {
        self.cvm.hv.machine.cycles().total()
    }
}

/// An enclave driver's untrusted section: the enclave thread is
/// descheduled and the app runs normally, in the same process.
fn run_untrusted(cvm: &mut Cvm, rt: &mut EnclaveRuntime, f: Section<'_>) -> Result<(), Errno> {
    park_enclave(cvm, rt)?;
    f(&mut cvm.sys(rt.handle.pid))
}

/// Shielded sections run inside a VeilS-ENC enclave; untrusted sections
/// run as the plain application (same process, outside the enclave).
pub struct EnclaveDriver<'a> {
    /// The Veil CVM.
    pub cvm: &'a mut Cvm,
    /// The enclave runtime (installed by `veil_sdk::install_enclave`).
    pub rt: &'a mut EnclaveRuntime,
}

impl Driver for EnclaveDriver<'_> {
    fn shielded(&mut self, f: Section<'_>) -> Result<(), Errno> {
        let mut sys = EnclaveSys::activate(self.cvm, self.rt)?;
        f(&mut sys)
        // Stay inside: consecutive shielded sections cost no crossings.
    }

    fn untrusted(&mut self, f: Section<'_>) -> Result<(), Errno> {
        run_untrusted(self.cvm, self.rt, f)
    }

    fn cycles(&self) -> u64 {
        self.cvm.hv.machine.cycles().total()
    }
}

/// Shielded sections run in the enclave with §10-style syscall batching:
/// fire-and-forget calls are queued and drained `batch` at a time.
pub struct BatchedEnclaveDriver<'a> {
    /// The Veil CVM.
    pub cvm: &'a mut Cvm,
    /// The enclave runtime.
    pub rt: &'a mut EnclaveRuntime,
    /// Queue depth per exit pair.
    pub batch: usize,
}

impl Driver for BatchedEnclaveDriver<'_> {
    fn shielded(&mut self, f: Section<'_>) -> Result<(), Errno> {
        let mut inner = EnclaveSys::activate(self.cvm, self.rt)?;
        let mut sys = veil_sdk::BatchedSys::new(&mut inner, self.batch);
        let r = f(&mut sys);
        sys.finish()?;
        r
    }

    fn untrusted(&mut self, f: Section<'_>) -> Result<(), Errno> {
        run_untrusted(self.cvm, self.rt, f)
    }

    fn cycles(&self) -> u64 {
        self.cvm.hv.machine.cycles().total()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use veil_os::sys::OpenFlags;
    use veil_sdk::{install_enclave, EnclaveBinary};

    #[test]
    fn native_driver_runs_sections() {
        let mut cvm = veil_services::CvmBuilder::new().frames(2048).build_native().unwrap();
        let pid = cvm.spawn();
        let mut d = KernelDriver { cvm: &mut cvm, pid };
        let mut seen = 0u32;
        d.shielded(&mut |sys| {
            let fd = sys.open("/tmp/n", OpenFlags::rdwr_create())?;
            sys.write(fd, b"x")?;
            seen += 1;
            Ok(())
        })
        .unwrap();
        d.untrusted(&mut |sys| {
            sys.stat("/tmp/n")?;
            seen += 1;
            Ok(())
        })
        .unwrap();
        assert_eq!(seen, 2);
        assert!(d.cycles() > 0);
    }

    #[test]
    fn enclave_driver_crosses_only_for_shielded_sections() {
        let mut cvm = veil_services::CvmBuilder::new().frames(4096).vcpus(1).build().unwrap();
        let pid = cvm.spawn();
        let handle = install_enclave(&mut cvm, pid, &EnclaveBinary::build("drv", 1024, 0)).unwrap();
        let mut rt = EnclaveRuntime::new(handle);
        let mut d = EnclaveDriver { cvm: &mut cvm, rt: &mut rt };
        d.shielded(&mut |sys| {
            let fd = sys.open("/tmp/e", OpenFlags::rdwr_create())?;
            sys.write(fd, b"enclave")?;
            sys.close(fd)
        })
        .unwrap();
        let crossings_after_shielded = d.rt.stats.crossings;
        d.untrusted(&mut |sys| sys.stat("/tmp/e").map(|_| ())).unwrap();
        // The untrusted section added at most the park-exit.
        assert!(d.rt.stats.crossings <= crossings_after_shielded + 1);
        assert!(d.rt.stats.syscalls >= 3);
    }
}
