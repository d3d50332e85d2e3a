//! CVM assembly: one CVM type, booted with Veil or natively.
//!
//! The paper's evaluation runs the same machine and the same kernel twice:
//! once under Veil and once natively. The only difference is where the
//! kernel's privileged requests go, which is the kernel's
//! [`MonitorChannel`]. So there is one CVM type, [`GenericCvm<G>`], generic
//! over that channel, and one [`CvmBuilder`] with two build methods:
//!
//! * [`CvmBuilder::build`] boots a [`VeilCvm`] (§5.1's modified boot
//!   process: the hypervisor's single boot VCPU runs VeilMon at `Dom_MON`,
//!   which then creates every other domain and finally boots the kernel at
//!   `Dom_UNT`);
//! * [`CvmBuilder::build_native`] boots a [`NativeCvm`], the unmodified
//!   baseline (kernel at VMPL-0) the evaluation compares against.

use crate::gate::VeilGate;
use crate::layout::{Layout, LayoutConfig};
use crate::monitor::Monitor;
use crate::service::{KernelHandoff, ServiceDispatch};
use std::marker::PhantomData;
use veil_hv::Hypervisor;
use veil_os::error::OsError;
use veil_os::kernel::{Kernel, KernelConfig, KernelCtx, KernelSys};
use veil_os::monitor::{MonitorChannel, NativeMonitor};
use veil_os::process::Pid;
use veil_snp::attest::measure_launch;
use veil_snp::machine::{Machine, MachineConfig};
use veil_snp::mem::PAGE_SIZE;
use veil_snp::perms::Vmpl;

/// The module-vendor signing key baked into the boot image (32 bytes).
pub const VENDOR_KEY: [u8; 32] = *b"veil-module-vendor-signing-key!!";

/// Builder for simulated CVMs. `S` is the protected-service bundle a Veil
/// boot constructs with `S::default()`; a native boot has no services.
#[derive(Debug)]
pub struct CvmBuilder<S> {
    frames: u64,
    vcpus: u32,
    log_frames: u64,
    kci: bool,
    trace: Option<bool>,
    metrics: Option<bool>,
    batch: Option<bool>,
    attest: Option<bool>,
    expected_measurement: Option<[u8; 32]>,
    image_tamper: Option<(usize, usize)>,
    shard: u32,
    services: PhantomData<fn() -> S>,
}

// By hand: a derive would require `S: Clone`, and a builder holds no `S`.
impl<S> Clone for CvmBuilder<S> {
    fn clone(&self) -> Self {
        CvmBuilder { ..*self }
    }
}

impl<S> Default for CvmBuilder<S> {
    fn default() -> Self {
        Self::new()
    }
}

impl<S> CvmBuilder<S> {
    /// Defaults: 4096 frames (16 MiB), 4 VCPUs, KCI on.
    pub fn new() -> Self {
        let d = LayoutConfig::default();
        CvmBuilder {
            frames: d.frames,
            vcpus: d.vcpus,
            log_frames: d.log_frames,
            kci: true,
            trace: None,
            metrics: None,
            batch: None,
            attest: None,
            expected_measurement: None,
            image_tamper: None,
            shard: 0,
            services: PhantomData,
        }
    }

    /// Guest memory in frames.
    pub fn frames(mut self, frames: u64) -> Self {
        self.frames = frames;
        self
    }

    /// VCPU count.
    pub fn vcpus(mut self, vcpus: u32) -> Self {
        self.vcpus = vcpus;
        self
    }

    /// Frames reserved for VeilS-LOG storage.
    pub fn log_frames(mut self, frames: u64) -> Self {
        self.log_frames = frames;
        self
    }

    /// Enables/disables routing module loads through VeilS-KCI (Veil
    /// boots only; a native kernel loads modules itself).
    pub fn kci(mut self, enabled: bool) -> Self {
        self.kci = enabled;
        self
    }

    /// Enables/disables deterministic event tracing (ring buffer + digest;
    /// see `veil-trace`). When not set explicitly the `VEIL_TRACE`
    /// environment variable decides (any value other than `0` enables).
    /// Event-counter folds run regardless; only recording is gated.
    pub fn trace(mut self, enabled: bool) -> Self {
        self.trace = Some(enabled);
        self
    }

    fn trace_enabled(&self) -> bool {
        self.trace.unwrap_or_else(|| std::env::var_os("VEIL_TRACE").is_some_and(|v| v != *"0"))
    }

    /// Enables/disables metrics collection (registry + span profiler; see
    /// `veil-metrics`). When not set explicitly the `VEIL_METRICS`
    /// environment variable decides (any value other than `0` enables).
    /// Metrics never charge cycles or emit events, so trace digests are
    /// identical either way.
    pub fn metrics(mut self, enabled: bool) -> Self {
        self.metrics = Some(enabled);
        self
    }

    fn metrics_enabled(&self) -> bool {
        self.metrics.unwrap_or_else(veil_snp::metrics::env_enabled)
    }

    /// Enables/disables the batched gate path (per-VCPU request rings +
    /// doorbell drains; see `veil_core::ring`). Defaults to *on*; when
    /// not set explicitly the `VEIL_NO_BATCH` environment variable turns
    /// it off (any value other than `0`), keeping the serial Fig. 3
    /// protocol as a differential twin. Veil boots only.
    pub fn batch(mut self, enabled: bool) -> Self {
        self.batch = Some(enabled);
        self
    }

    fn batch_enabled(&self) -> bool {
        self.batch.unwrap_or_else(|| std::env::var_os("VEIL_NO_BATCH").is_none_or(|v| v == *"0"))
    }

    /// Enables/disables the measured-boot check (pvmfw style): when
    /// enforced, the launch measurement the firmware records is compared
    /// with the expected one before VeilMon runs a single instruction, and
    /// the build fails fast with [`OsError::FirmwareRefused`] on any
    /// mismatch. When not set explicitly the `VEIL_ATTEST` environment
    /// variable decides (any value other than `0` enforces). The check
    /// only compares digests, so enforcement never changes trace digests.
    pub fn attest(mut self, enforced: bool) -> Self {
        self.attest = Some(enforced);
        self
    }

    fn attest_enabled(&self) -> bool {
        self.attest.unwrap_or_else(|| std::env::var_os("VEIL_ATTEST").is_some_and(|v| v != *"0"))
    }

    /// Pins the launch measurement the measured-boot check expects. When
    /// unset, it defaults to [`measure_launch`] of the canonical Veil image
    /// for the configured layout (which catches *mutations*, the pvmfw
    /// threat model); golden tests pin an explicit digest to also catch
    /// image drift across builds.
    pub fn expected_measurement(mut self, digest: [u8; 32]) -> Self {
        self.expected_measurement = Some(digest);
        self
    }

    /// Test/adversary hook: XOR-flips one byte of the staged boot image
    /// (`page` indexes the image page list, `offset` the byte within it;
    /// both wrap). Models a supply-chain or hypervisor image swap that the
    /// measured-boot check must refuse when enforcement is on.
    pub fn tamper_boot_image(mut self, page: usize, offset: usize) -> Self {
        self.image_tamper = Some((page, offset));
        self
    }

    /// Labels this CVM's machine with a fleet shard id (see
    /// [`veil_snp::machine::MachineConfig::shard`]). Label-only: shard 7
    /// boots, runs, and digests exactly like shard 0.
    pub fn shard(mut self, shard: u32) -> Self {
        self.shard = shard;
        self
    }

    /// The machine and hypervisor both boots start from.
    fn machine(&self) -> (Layout, Hypervisor) {
        let layout = Layout::compute(&LayoutConfig {
            frames: self.frames,
            vcpus: self.vcpus,
            log_frames: self.log_frames,
            ..LayoutConfig::default()
        });
        let machine = Machine::new(MachineConfig {
            frames: self.frames as usize,
            shard: self.shard,
            ..Default::default()
        });
        let mut hv = Hypervisor::new(machine);
        hv.set_trace(self.trace_enabled());
        hv.set_metrics(self.metrics_enabled());
        (layout, hv)
    }

    /// Boots the kernel over `gate`, which fixes the VMPL it runs at.
    fn boot_kernel(
        &self,
        hv: &mut Hypervisor,
        gate: &mut dyn MonitorChannel,
        layout: &Layout,
    ) -> Result<Kernel, OsError> {
        let kconfig = KernelConfig {
            pool_start: layout.kernel_pool.start,
            pool_end: layout.kernel_pool.end,
            ghcb_gfns: layout.kernel_ghcb_gfns(self.vcpus),
            vcpus: self.vcpus,
            vendor_key: VENDOR_KEY,
            kernel_text_gfns: layout.kernel_text.clone().collect(),
            kernel_data_gfns: layout.kernel_data.clone().collect(),
        };
        Kernel::boot(&mut KernelCtx { hv, gate, vcpu: 0 }, kconfig)
    }

    /// Builds a Veil CVM carrying a fresh `S` as its protected services.
    ///
    /// # Errors
    ///
    /// Any machine/RMP error during launch, monitor init, service boot or
    /// kernel boot aborts construction, as does a failed measured-boot
    /// check ([`OsError::FirmwareRefused`]).
    pub fn build(self) -> Result<VeilCvm<S>, OsError>
    where
        S: ServiceDispatch + Default,
    {
        let (layout, mut hv) = self.machine();
        let mut image = veil_boot_image(&layout);
        if let Some((page, offset)) = self.image_tamper {
            let page = page % image.len();
            let data = &mut image[page].1;
            let offset = offset % data.len();
            data[offset] ^= 0xff;
        }
        let actual = hv.launch(&image, layout.boot_vmsa)?;
        if self.attest_enabled() {
            // Measured boot: refuse before VeilMon runs a single instruction.
            let expected = self
                .expected_measurement
                .unwrap_or_else(|| measure_launch(&veil_boot_image(&layout), layout.boot_vmsa));
            if actual != expected {
                return Err(OsError::FirmwareRefused { expected, actual });
            }
        }

        let boot_start = hv.machine.cycles().total();
        let mut monitor = Monitor::init(&mut hv, layout.clone(), self.vcpus)?;
        let handoff = KernelHandoff {
            kernel_text_gfns: layout.kernel_text.clone().collect(),
            kernel_data_gfns: layout.kernel_data.clone().collect(),
            vendor_key: VENDOR_KEY,
        };
        let mut services = S::default();
        services.on_boot(&mut monitor, &mut hv, &handoff)?;
        let boot_cycles = hv.machine.cycles().total() - boot_start;

        let mut gate = VeilGate::new(monitor, services);
        gate.set_batching(self.batch_enabled());
        let mut kernel = self.boot_kernel(&mut hv, &mut gate, &layout)?;
        kernel.kci = self.kci;
        // Boot handoff: VeilMon transfers control to the kernel domain on
        // every VCPU (the last VMENTER of the boot flow).
        for v in 0..self.vcpus {
            if let Some(svm) = hv.vcpu_mut(v) {
                svm.current_vmpl = Vmpl::Vmpl3;
            }
        }
        // Subsequent cycles accrue to the guest kernel domain.
        hv.machine.set_current_domain(Vmpl::Vmpl3);
        Ok(GenericCvm { hv, gate, kernel, vcpus: self.vcpus, boot_cycles })
    }

    /// Builds the *native* baseline CVM: same machine, same kernel, no
    /// Veil — the kernel owns VMPL-0.
    ///
    /// # Errors
    ///
    /// Any machine/RMP error during launch, memory validation or kernel
    /// boot.
    pub fn build_native(self) -> Result<NativeCvm, OsError> {
        let (layout, mut hv) = self.machine();
        // The native boot image is just the kernel.
        let image: Vec<(u64, Vec<u8>)> =
            layout.kernel_text.clone().map(|gfn| (gfn, image_page(gfn, "linux-guest"))).collect();
        hv.launch(&image, layout.boot_vmsa)?;

        let boot_start = hv.machine.cycles().total();
        // Native SNP boot still validates all private memory (no
        // RMPADJUST passes — VMPL-0 already owns everything).
        for gfn in layout.private_frames() {
            if hv.machine.rmp().entry(gfn).map(|e| e.state())
                == Some(veil_snp::rmp::PageState::Shared)
            {
                hv.machine.rmp_assign(gfn)?;
                hv.machine.pvalidate(Vmpl::Vmpl0, gfn, true)?;
            }
        }
        let boot_cycles = hv.machine.cycles().total() - boot_start;

        // The monitor-pool region is unused natively; lend it for VMSAs.
        let mut gate = NativeMonitor::new(layout.mon_pool.clone().collect());
        let kernel = self.boot_kernel(&mut hv, &mut gate, &layout)?;
        Ok(GenericCvm { hv, gate, kernel, vcpus: self.vcpus, boot_cycles })
    }
}

/// Deterministic boot-image page contents (measured at launch).
fn image_page(gfn: u64, tag: &str) -> Vec<u8> {
    let mut page = vec![0u8; PAGE_SIZE];
    let banner = format!("{tag} page {gfn} ");
    for (i, b) in page.iter_mut().enumerate() {
        let src = banner.as_bytes();
        *b = src[i % src.len()] ^ ((i / src.len()) as u8);
    }
    page
}

/// The Veil boot image: VeilMon + protected services.
pub fn veil_boot_image(layout: &Layout) -> Vec<(u64, Vec<u8>)> {
    layout
        .mon_image
        .clone()
        .map(|gfn| (gfn, image_page(gfn, "veilmon-v1")))
        .chain(layout.ser_image.clone().map(|gfn| (gfn, image_page(gfn, "veils-services-v1"))))
        .collect()
}

/// A CVM: the hypervisor, the untrusted kernel, and `G`, the kernel's
/// channel to trusted software.
#[derive(Debug)]
pub struct GenericCvm<G> {
    /// The untrusted hypervisor (owns the machine).
    pub hv: Hypervisor,
    /// VeilMon and its services, or the kernel's own VMPL-0 powers.
    pub gate: G,
    /// The commodity kernel (at `Dom_UNT` under Veil, VMPL-0 natively).
    pub kernel: Kernel,
    /// VCPUs replicated at boot.
    pub vcpus: u32,
    /// One-time boot cycles (§9.1): under Veil, VeilMon and service
    /// initialization; natively, validating private memory.
    pub boot_cycles: u64,
}

/// A Veil CVM: the kernel at `Dom_UNT` behind VeilMon's gate.
pub type VeilCvm<S> = GenericCvm<VeilGate<S>>;

/// The native (Veil-less) baseline CVM: the kernel at VMPL-0.
pub type NativeCvm = GenericCvm<NativeMonitor>;

// Fleet shards move whole CVMs across worker threads: a CVM must be `Send`
// whenever its channel is. The assertion makes any future non-`Send` field
// a compile error here rather than a type-inference surprise at the
// scheduler call site.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<VeilCvm<crate::service::NoServices>>();
    assert_send::<NativeCvm>();
};

impl<G: MonitorChannel> GenericCvm<G> {
    /// Spawns a process.
    pub fn spawn(&mut self) -> Pid {
        self.kernel.spawn()
    }

    /// A [`veil_os::sys::Sys`] handle for `pid` on VCPU 0.
    pub fn sys(&mut self, pid: Pid) -> KernelSys<'_> {
        KernelSys { kernel: &mut self.kernel, hv: &mut self.hv, gate: &mut self.gate, vcpu: 0, pid }
    }

    /// A kernel context for direct kernel calls.
    pub fn kctx(&mut self) -> (&mut Kernel, KernelCtx<'_>) {
        (&mut self.kernel, KernelCtx { hv: &mut self.hv, gate: &mut self.gate, vcpu: 0 })
    }

    /// Drains any deferred gate requests on every VCPU. A no-op when the
    /// batched gate path is off or nothing is pending (always, natively);
    /// call it before comparing final states across batched/serial twins.
    ///
    /// # Errors
    ///
    /// Any switch or machine error during the drain.
    pub fn flush_gate(&mut self) -> Result<(), OsError> {
        for v in 0..self.vcpus {
            self.gate.flush(&mut self.hv, v)?;
        }
        Ok(())
    }
    /// SHA-256 digest over every event recorded since tracing was enabled
    /// (deterministic for a fixed build/configuration/`VEIL_TEST_SEED`).
    pub fn trace_digest(&self) -> [u8; 32] {
        self.hv.machine.tracer().digest()
    }

    /// [`GenericCvm::trace_digest`] as lowercase hex, as pinned by the
    /// golden-trace tests.
    pub fn trace_digest_hex(&self) -> String {
        self.hv.machine.tracer().digest_hex()
    }

    /// Snapshot of the buffered trace records (oldest first).
    pub fn trace_records(&self) -> Vec<veil_snp::trace::Record> {
        self.hv.machine.tracer().snapshot()
    }

    /// Cycles charged while each domain (VMPL 0..=3) was executing.
    pub fn domain_cycles(&self) -> [u64; 4] {
        self.hv.machine.domain_cycles()
    }

    /// The machine's metrics registry (counters, gauges, histograms).
    pub fn metrics(&self) -> &veil_snp::metrics::MetricsRegistry {
        self.hv.machine.metrics()
    }

    /// The machine's span profiler (hierarchical cycle attribution).
    pub fn spans(&self) -> &veil_snp::metrics::SpanProfiler {
        self.hv.machine.spans()
    }

    /// The deterministic JSON metrics snapshot (see
    /// `veil_metrics::export::json_snapshot`). Bit-identical across runs
    /// at the same build/configuration/`VEIL_TEST_SEED`.
    pub fn metrics_snapshot(&self) -> String {
        veil_snp::metrics::export::json_snapshot(self.metrics(), self.spans())
    }

    /// SHA-256 of [`GenericCvm::metrics_snapshot`] as lowercase hex —
    /// the value golden snapshot tests pin.
    pub fn metrics_digest_hex(&self) -> String {
        veil_snp::metrics::export::snapshot_digest_hex(&self.metrics_snapshot())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::NoServices;
    use veil_os::sys::{OpenFlags, Sys};

    /// The builder of a monitor-only CVM.
    type Builder = CvmBuilder<NoServices>;

    #[test]
    fn veil_cvm_boots_and_serves_syscalls() {
        let mut cvm = Builder::new().frames(2048).vcpus(2).build().unwrap();
        assert_eq!(cvm.kernel.vmpl, Vmpl::Vmpl3, "kernel deprivileged under Veil");
        let pid = cvm.spawn();
        let mut sys = cvm.sys(pid);
        let fd = sys.open("/tmp/x", OpenFlags::rdwr_create()).unwrap();
        sys.write(fd, b"under veil").unwrap();
        assert_eq!(sys.fstat(fd).unwrap().size, 10);
    }

    #[test]
    fn native_cvm_boots_with_kernel_at_vmpl0() {
        let mut cvm = Builder::new().frames(2048).build_native().unwrap();
        assert_eq!(cvm.kernel.vmpl, Vmpl::Vmpl0);
        let pid = cvm.spawn();
        let mut sys = cvm.sys(pid);
        let fd = sys.open("/tmp/x", OpenFlags::rdwr_create()).unwrap();
        sys.write(fd, b"native").unwrap();
    }

    #[test]
    fn veil_boot_costs_more_than_native() {
        let veil = Builder::new().frames(2048).build().unwrap();
        let native = Builder::new().frames(2048).build_native().unwrap();
        assert!(
            veil.boot_cycles > native.boot_cycles,
            "veil {} vs native {}",
            veil.boot_cycles,
            native.boot_cycles
        );
        // The paper reports ~13% boot-time increase; the RMPADJUST pass
        // dominates the delta. Sanity-check the magnitude relationship.
        let delta = veil.boot_cycles - native.boot_cycles;
        assert!(delta > native.boot_cycles / 2);
    }

    #[test]
    fn pvalidate_delegation_works_through_the_whole_stack() {
        let mut cvm = Builder::new().frames(2048).build().unwrap();
        // Pick an unassigned shared frame as a hotplug page.
        let gfn = cvm.gate.monitor.layout.shared.start + 8;
        let before = cvm.kernel.frames.available();
        let (kernel, mut ctx) = cvm.kctx();
        kernel.accept_page(&mut ctx, gfn).unwrap();
        assert_eq!(cvm.kernel.frames.available(), before + 1);
    }

    #[test]
    fn kernel_cannot_touch_monitor_memory() {
        let mut cvm = Builder::new().frames(2048).build().unwrap();
        let mon_gpa = Machine::gpa(cvm.gate.monitor.layout.mon_pool.start);
        assert!(cvm.hv.machine.write(Vmpl::Vmpl3, mon_gpa, b"attack").is_err());
    }

    #[test]
    fn measured_boot_refuses_mutated_image() {
        let err =
            Builder::new().frames(2048).attest(true).tamper_boot_image(0, 5).build().unwrap_err();
        assert!(
            matches!(err, OsError::FirmwareRefused { .. }),
            "expected fail-fast refusal, got {err:?}"
        );
    }

    #[test]
    fn measured_boot_accepts_pristine_image_without_perturbing_boot() {
        let attested = Builder::new().frames(2048).attest(true).build().unwrap();
        let plain = Builder::new().frames(2048).attest(false).build().unwrap();
        assert_eq!(
            attested.hv.machine.launch_measurement(),
            plain.hv.machine.launch_measurement(),
            "enforcement only compares digests"
        );
        assert_eq!(attested.boot_cycles, plain.boot_cycles);
    }

    #[test]
    fn measured_boot_honours_pinned_measurement() {
        let layout = Layout::compute(&LayoutConfig::default());
        let good = measure_launch(&veil_boot_image(&layout), layout.boot_vmsa);
        Builder::new().attest(true).expected_measurement(good).build().unwrap();
        let err = Builder::new().attest(true).expected_measurement([0xab; 32]).build().unwrap_err();
        assert!(matches!(err, OsError::FirmwareRefused { .. }));
    }

    #[test]
    fn boot_image_is_deterministic() {
        let layout = Layout::compute(&LayoutConfig::default());
        assert_eq!(veil_boot_image(&layout), veil_boot_image(&layout));
        let m1 = Builder::new().frames(2048).build().unwrap();
        let m2 = Builder::new().frames(2048).build().unwrap();
        assert_eq!(
            m1.hv.machine.launch_measurement(),
            m2.hv.machine.launch_measurement(),
            "same image, same measurement"
        );
    }
}
