//! The `Sys` trait: the system-call surface workloads program against.
//!
//! Every workload in `veil-workloads` takes a `&mut dyn Sys`. Two
//! implementations exist:
//!
//! * `veil-os::kernel::KernelSys` — direct kernel service (native process
//!   or the untrusted side of an enclave app), and the kernel's only
//!   syscall layer: each call is charged, serviced and audited in one
//!   place;
//! * `veil-sdk::EnclaveSys` — the enclave path: arguments are deep-copied
//!   out through the sanitizer, the enclave exits to `Dom_UNT`, the
//!   syscall runs, results are copied back and IAGO-checked (§6.2).
//!
//! Keeping one trait for both is what lets Fig. 4/Fig. 5 compare the same
//! program natively and shielded.

use crate::error::Errno;

/// A file descriptor as seen by user space.
pub type Fd = i32;

/// `open(2)` flags (subset).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OpenFlags {
    /// Open for reading.
    pub read: bool,
    /// Open for writing.
    pub write: bool,
    /// Create if missing.
    pub create: bool,
    /// Truncate on open.
    pub truncate: bool,
    /// Append mode.
    pub append: bool,
}

impl OpenFlags {
    /// `O_RDONLY`.
    pub fn rdonly() -> Self {
        OpenFlags { read: true, ..Default::default() }
    }

    /// `O_RDWR`.
    pub fn rdwr() -> Self {
        OpenFlags { read: true, write: true, ..Default::default() }
    }

    /// `O_RDWR | O_CREAT`.
    pub fn rdwr_create() -> Self {
        OpenFlags { read: true, write: true, create: true, ..Default::default() }
    }

    /// `O_WRONLY | O_CREAT | O_TRUNC`.
    pub fn wronly_create_trunc() -> Self {
        OpenFlags { write: true, create: true, truncate: true, ..Default::default() }
    }
}

/// `stat(2)` result (subset).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SysStat {
    /// Size in bytes.
    pub size: u64,
    /// Permission bits.
    pub mode: u32,
    /// Hard links.
    pub nlink: u32,
    /// Is a directory.
    pub is_dir: bool,
}

/// Seek origins for `lseek(2)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Whence {
    /// From file start.
    Set,
    /// From current offset.
    Cur,
    /// From end of file.
    End,
}

/// The syscall surface. All methods mirror their POSIX namesakes; see
/// [`crate::kernel::KernelSys`] for the exact semantics modelled.
#[allow(clippy::too_many_arguments)]
pub trait Sys {
    /// Opens `path`.
    fn open(&mut self, path: &str, flags: OpenFlags) -> Result<Fd, Errno>;
    /// Closes a descriptor.
    fn close(&mut self, fd: Fd) -> Result<(), Errno>;
    /// Reads into `buf` from the current offset.
    fn read(&mut self, fd: Fd, buf: &mut [u8]) -> Result<usize, Errno>;
    /// Writes `buf` at the current offset.
    fn write(&mut self, fd: Fd, buf: &[u8]) -> Result<usize, Errno>;
    /// Positioned read (no offset change).
    fn pread(&mut self, fd: Fd, buf: &mut [u8], offset: u64) -> Result<usize, Errno>;
    /// Positioned write (no offset change).
    fn pwrite(&mut self, fd: Fd, buf: &[u8], offset: u64) -> Result<usize, Errno>;
    /// Moves the file offset.
    fn lseek(&mut self, fd: Fd, offset: i64, whence: Whence) -> Result<u64, Errno>;
    /// Stats a path.
    fn stat(&mut self, path: &str) -> Result<SysStat, Errno>;
    /// Stats an open descriptor.
    fn fstat(&mut self, fd: Fd) -> Result<SysStat, Errno>;
    /// Creates a directory.
    fn mkdir(&mut self, path: &str) -> Result<(), Errno>;
    /// Removes an empty directory.
    fn rmdir(&mut self, path: &str) -> Result<(), Errno>;
    /// Removes a file.
    fn unlink(&mut self, path: &str) -> Result<(), Errno>;
    /// Renames a file.
    fn rename(&mut self, from: &str, to: &str) -> Result<(), Errno>;
    /// Creates a hard link.
    fn link(&mut self, existing: &str, new_path: &str) -> Result<(), Errno>;
    /// Creates a symlink.
    fn symlink(&mut self, target: &str, link_path: &str) -> Result<(), Errno>;
    /// Truncates an open file.
    fn ftruncate(&mut self, fd: Fd, len: u64) -> Result<(), Errno>;
    /// Changes permissions by path.
    fn chmod(&mut self, path: &str, mode: u32) -> Result<(), Errno>;
    /// Changes permissions by descriptor.
    fn fchmod(&mut self, fd: Fd, mode: u32) -> Result<(), Errno>;
    /// Lists directory entries.
    fn getdents(&mut self, fd: Fd) -> Result<Vec<String>, Errno>;

    /// Maps `len` bytes of fresh anonymous memory; returns the address.
    fn mmap(&mut self, len: usize) -> Result<u64, Errno>;
    /// Unmaps a region created by [`Sys::mmap`].
    fn munmap(&mut self, addr: u64, len: usize) -> Result<(), Errno>;
    /// Changes region protection; `prot_write=false` makes it read-only.
    fn mprotect(&mut self, addr: u64, len: usize, prot_write: bool) -> Result<(), Errno>;
    /// Writes into mapped process memory.
    fn mem_write(&mut self, addr: u64, data: &[u8]) -> Result<(), Errno>;
    /// Reads from mapped process memory.
    fn mem_read(&mut self, addr: u64, buf: &mut [u8]) -> Result<(), Errno>;

    /// Creates a stream socket.
    fn socket(&mut self) -> Result<Fd, Errno>;
    /// Binds to a loopback port.
    fn bind(&mut self, fd: Fd, port: u16) -> Result<(), Errno>;
    /// Starts listening.
    fn listen(&mut self, fd: Fd) -> Result<(), Errno>;
    /// Accepts a pending connection.
    fn accept(&mut self, fd: Fd) -> Result<Fd, Errno>;
    /// Connects to a loopback port.
    fn connect(&mut self, fd: Fd, port: u16) -> Result<(), Errno>;
    /// Sends on a connected socket.
    fn send(&mut self, fd: Fd, data: &[u8]) -> Result<usize, Errno>;
    /// Receives from a connected socket.
    fn recv(&mut self, fd: Fd, buf: &mut [u8]) -> Result<usize, Errno>;
    /// Creates a connected socket pair.
    fn socketpair(&mut self) -> Result<(Fd, Fd), Errno>;

    /// Duplicates a descriptor.
    fn dup(&mut self, fd: Fd) -> Result<Fd, Errno>;
    /// Duplicates onto a chosen descriptor.
    fn dup2(&mut self, fd: Fd, new_fd: Fd) -> Result<Fd, Errno>;
    /// Caller's pid.
    fn getpid(&mut self) -> Result<u32, Errno>;
    /// Caller's uid.
    fn getuid(&mut self) -> Result<u32, Errno>;
    /// Sets the uid (audit-relevant).
    fn setuid(&mut self, uid: u32) -> Result<(), Errno>;
    /// Writes to the console (`printf` in the Fig. 4 benchmark).
    fn print(&mut self, msg: &str) -> Result<usize, Errno>;
    /// Monotonic clock in simulated nanoseconds.
    fn clock_gettime(&mut self) -> Result<u64, Errno>;
    /// `sendfile(2)`: copies `len` bytes from `in_fd` to `out_fd`.
    fn sendfile(&mut self, out_fd: Fd, in_fd: Fd, len: usize) -> Result<usize, Errno>;
    /// Unsupported catch-all (`ioctl` and friends); implementations
    /// default to `ENOSYS`.
    fn ioctl(&mut self, _fd: Fd, _req: u64) -> Result<u64, Errno> {
        Err(Errno::ENOSYS)
    }

    /// Accounts `cycles` of application compute — the simulation's
    /// stand-in for actually executing workload instructions. Charged to
    /// the machine's cycle account in the `Compute` category; costs the
    /// same inside and outside an enclave (no boundary is crossed).
    fn burn(&mut self, cycles: u64);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_flag_constructors() {
        assert!(OpenFlags::rdonly().read);
        assert!(!OpenFlags::rdonly().write);
        let w = OpenFlags::wronly_create_trunc();
        assert!(w.write && w.create && w.truncate && !w.read);
    }
}
