//! The benchmark's own instrumentation around the public layer calls.
//!
//! [`ProbeDriver`] is a `veil_workloads::driver::Driver` that runs
//! shielded sections in the VeilS-ENC enclave (like `EnclaveDriver`) and
//! hands each section a [`ProbeSys`]: a `Sys` wrapper that forwards every
//! call unchanged. It always counts calls and records the model cycles
//! of each operation (an operation ends when the workload's marker
//! syscall returns). In timed mode it also brackets every `Sys` call,
//! every section and every enclave enter/exit with `Instant`, so the
//! section time splits into the os path (the `Sys` spans) and workload
//! compute (the rest).

use std::time::Instant;
use veil_os::error::Errno;
use veil_os::kernel::KernelSys;
use veil_os::sys::{Fd, OpenFlags, Sys, SysStat, Whence};
use veil_sdk::runtime::park_enclave;
use veil_sdk::{EnclaveRuntime, EnclaveSys};
use veil_services::Cvm;
use veil_workloads::driver::{Driver, Section};

/// What one workload run recorded.
#[derive(Debug, Default)]
pub struct Recorder {
    /// Whether host-time spans are taken.
    timed: bool,
    /// `Sys` calls forwarded (both sections).
    pub calls: u64,
    /// Host ns of each `Sys` call (timed mode only).
    pub sys_ns: Vec<u64>,
    /// Host ns inside sections (timed mode only).
    pub section_ns: u64,
    /// Host ns spent entering and leaving the enclave (timed mode only).
    pub sdk_ns: u64,
    /// Model cycles of each operation, in order.
    pub op_cycles: Vec<u64>,
}

impl Recorder {
    pub fn new(timed: bool) -> Self {
        Recorder { timed, ..Recorder::default() }
    }

    fn start(&self) -> Option<Instant> {
        self.timed.then(Instant::now)
    }

    fn elapsed(t: Option<Instant>) -> u64 {
        t.map_or(0, |t| t.elapsed().as_nanos() as u64)
    }

    /// Host ns of all `Sys` spans.
    pub fn sys_total_ns(&self) -> u64 {
        self.sys_ns.iter().sum()
    }
}

/// A `Sys` implementation that can report the machine's cycle count.
pub trait Clocked: Sys {
    fn model_cycles(&self) -> u64;
}

impl Clocked for EnclaveSys<'_> {
    fn model_cycles(&self) -> u64 {
        self.cvm.hv.machine.cycles().total()
    }
}

impl Clocked for KernelSys<'_> {
    fn model_cycles(&self) -> u64 {
        self.hv.machine.cycles().total()
    }
}

/// Forwards every call to `inner`, counting and (in timed mode) timing it.
pub struct ProbeSys<'r, S> {
    inner: S,
    rec: &'r mut Recorder,
    /// The syscall whose return ends one operation, if this section
    /// carries the workload's operations.
    marker: Option<&'static str>,
    op_start: u64,
}

impl<'r, S: Clocked> ProbeSys<'r, S> {
    fn new(inner: S, rec: &'r mut Recorder, marker: Option<&'static str>) -> Self {
        let op_start = inner.model_cycles();
        ProbeSys { inner, rec, marker, op_start }
    }

    fn after(&mut self, name: &'static str, t: Option<Instant>) {
        if let Some(t) = t {
            self.rec.sys_ns.push(t.elapsed().as_nanos() as u64);
        }
        self.rec.calls += 1;
        if self.marker == Some(name) {
            let now = self.inner.model_cycles();
            self.rec.op_cycles.push(now - self.op_start);
            self.op_start = now;
        }
    }
}

macro_rules! forward {
    ($($name:ident($($arg:ident: $ty:ty),*) -> $ret:ty;)*) => {
        $(fn $name(&mut self, $($arg: $ty),*) -> $ret {
            let t = self.rec.start();
            let r = self.inner.$name($($arg),*);
            self.after(stringify!($name), t);
            r
        })*
    };
}

impl<S: Clocked> Sys for ProbeSys<'_, S> {
    forward! {
        open(path: &str, flags: OpenFlags) -> Result<Fd, Errno>;
        close(fd: Fd) -> Result<(), Errno>;
        read(fd: Fd, buf: &mut [u8]) -> Result<usize, Errno>;
        write(fd: Fd, buf: &[u8]) -> Result<usize, Errno>;
        pread(fd: Fd, buf: &mut [u8], offset: u64) -> Result<usize, Errno>;
        pwrite(fd: Fd, buf: &[u8], offset: u64) -> Result<usize, Errno>;
        lseek(fd: Fd, offset: i64, whence: Whence) -> Result<u64, Errno>;
        stat(path: &str) -> Result<SysStat, Errno>;
        fstat(fd: Fd) -> Result<SysStat, Errno>;
        mkdir(path: &str) -> Result<(), Errno>;
        rmdir(path: &str) -> Result<(), Errno>;
        unlink(path: &str) -> Result<(), Errno>;
        rename(from: &str, to: &str) -> Result<(), Errno>;
        link(existing: &str, new_path: &str) -> Result<(), Errno>;
        symlink(target: &str, link_path: &str) -> Result<(), Errno>;
        ftruncate(fd: Fd, len: u64) -> Result<(), Errno>;
        chmod(path: &str, mode: u32) -> Result<(), Errno>;
        fchmod(fd: Fd, mode: u32) -> Result<(), Errno>;
        getdents(fd: Fd) -> Result<Vec<String>, Errno>;
        mmap(len: usize) -> Result<u64, Errno>;
        munmap(addr: u64, len: usize) -> Result<(), Errno>;
        mprotect(addr: u64, len: usize, prot_write: bool) -> Result<(), Errno>;
        mem_write(addr: u64, data: &[u8]) -> Result<(), Errno>;
        mem_read(addr: u64, buf: &mut [u8]) -> Result<(), Errno>;
        socket() -> Result<Fd, Errno>;
        bind(fd: Fd, port: u16) -> Result<(), Errno>;
        listen(fd: Fd) -> Result<(), Errno>;
        accept(fd: Fd) -> Result<Fd, Errno>;
        connect(fd: Fd, port: u16) -> Result<(), Errno>;
        send(fd: Fd, data: &[u8]) -> Result<usize, Errno>;
        recv(fd: Fd, buf: &mut [u8]) -> Result<usize, Errno>;
        socketpair() -> Result<(Fd, Fd), Errno>;
        dup(fd: Fd) -> Result<Fd, Errno>;
        dup2(fd: Fd, new_fd: Fd) -> Result<Fd, Errno>;
        getpid() -> Result<u32, Errno>;
        getuid() -> Result<u32, Errno>;
        setuid(uid: u32) -> Result<(), Errno>;
        print(msg: &str) -> Result<usize, Errno>;
        clock_gettime() -> Result<u64, Errno>;
        sendfile(out_fd: Fd, in_fd: Fd, len: usize) -> Result<usize, Errno>;
        ioctl(fd: Fd, req: u64) -> Result<u64, Errno>;
    }

    /// Compute, not a syscall: forwarded untimed and uncounted.
    fn burn(&mut self, cycles: u64) {
        self.inner.burn(cycles);
    }
}

/// Runs shielded sections in the enclave and untrusted sections in the
/// kernel, both through a [`ProbeSys`].
pub struct ProbeDriver<'a> {
    pub cvm: &'a mut Cvm,
    pub rt: &'a mut EnclaveRuntime,
    pub rec: &'a mut Recorder,
    /// The shielded syscall whose return ends one operation.
    pub marker: &'static str,
}

impl Driver for ProbeDriver<'_> {
    fn shielded(&mut self, f: Section<'_>) -> Result<(), Errno> {
        let t = self.rec.start();
        let inner = EnclaveSys::activate(self.cvm, self.rt)?;
        self.rec.sdk_ns += Recorder::elapsed(t);
        let t = self.rec.start();
        let r = f(&mut ProbeSys::new(inner, self.rec, Some(self.marker)));
        self.rec.section_ns += Recorder::elapsed(t);
        r
    }

    fn untrusted(&mut self, f: Section<'_>) -> Result<(), Errno> {
        let t = self.rec.start();
        park_enclave(self.cvm, self.rt)?;
        self.rec.sdk_ns += Recorder::elapsed(t);
        let inner = KernelSys {
            kernel: &mut self.cvm.kernel,
            hv: &mut self.cvm.hv,
            gate: &mut self.cvm.gate,
            vcpu: 0,
            pid: self.rt.handle.pid,
        };
        let t = self.rec.start();
        let r = f(&mut ProbeSys::new(inner, self.rec, None));
        self.rec.section_ns += Recorder::elapsed(t);
        r
    }

    fn cycles(&self) -> u64 {
        self.cvm.hv.machine.cycles().total()
    }
}
