//! Syscall call specifications — the sanitizer grammar (§7).
//!
//! "The sanitizer is guided by both a call and type specification. The
//! call specification encodes the high-level information about arguments
//! used in each system call. The type specification contains the
//! signature of various types... It also contains high-level semantic
//! information, such as the length constraint relationship between
//! different arguments."
//!
//! The table below is the call specification, derived (as in the paper)
//! from Syzkaller-style descriptions and checked by the unit tests in
//! this module, length constraints included. There is no type
//! specification: no supported call passes a pointer inside a structure.
//!
//! The runtime reads the table only through [`spec_for`], to decide
//! whether a call is supported; an unsupported call kills the enclave.
//! The deep copies are written out per call: each `Sys` method of
//! [`crate::runtime::EnclaveSys`] uses one of five redirect helpers
//! (in-buffer, out-buffer, scalar, one path, two paths), the shape its
//! row here describes.

use veil_os::syscall::Sysno;

/// How one argument slot crosses the boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArgSpec {
    /// Plain scalar (fd, flags, offset...) — passed by value.
    Scalar,
    /// Pointer to caller data of `len_arg`'s value bytes — deep-copied
    /// *out of* the enclave before the call.
    InBuf {
        /// Index of the argument holding the byte length.
        len_arg: usize,
    },
    /// Pointer to a result buffer of `len_arg`'s value bytes — space is
    /// reserved in shared memory and copied *into* the enclave after.
    OutBuf {
        /// Index of the argument holding the byte length.
        len_arg: usize,
    },
    /// NUL-terminated string (paths) — copied out with a length cap.
    InStr,
    /// Pointer to a fixed-size out structure (stat...).
    OutStruct {
        /// Structure size in bytes.
        size: usize,
    },
}

/// How the return value crosses back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RetSpec {
    /// Scalar or -errno.
    Scalar,
    /// New descriptor.
    Fd,
    /// A pointer into *untrusted* memory (mmap) — must be IAGO-checked:
    /// the enclave refuses pointers that land inside its own range.
    UntrustedPointer,
}

/// The call specification for one syscall.
#[derive(Debug, Clone, Copy)]
pub struct CallSpec {
    /// The syscall.
    pub sysno: Sysno,
    /// Argument slots in order.
    pub args: &'static [ArgSpec],
    /// Return handling.
    pub ret: RetSpec,
}

/// Maximum string length the sanitizer will copy (paths).
pub const STR_MAX: usize = 4096;

use ArgSpec::Scalar;
use ArgSpec::{InBuf, InStr, OutBuf, OutStruct};
use RetSpec::Scalar as RetScalar;
use RetSpec::{Fd, UntrustedPointer};

/// The supported-call table (the paper's SDK supports 96 calls; ours
/// covers the simulated kernel's full surface).
pub static CALL_SPECS: &[CallSpec] = &[
    CallSpec { sysno: Sysno::Read, args: &[Scalar, OutBuf { len_arg: 2 }, Scalar], ret: RetScalar },
    CallSpec { sysno: Sysno::Write, args: &[Scalar, InBuf { len_arg: 2 }, Scalar], ret: RetScalar },
    CallSpec { sysno: Sysno::Open, args: &[InStr, Scalar], ret: Fd },
    CallSpec { sysno: Sysno::Close, args: &[Scalar], ret: RetScalar },
    CallSpec { sysno: Sysno::Stat, args: &[InStr, OutStruct { size: 24 }], ret: RetScalar },
    CallSpec { sysno: Sysno::Fstat, args: &[Scalar, OutStruct { size: 24 }], ret: RetScalar },
    CallSpec { sysno: Sysno::Lseek, args: &[Scalar, Scalar, Scalar], ret: RetScalar },
    CallSpec { sysno: Sysno::Mmap, args: &[Scalar, Scalar], ret: UntrustedPointer },
    CallSpec { sysno: Sysno::Mprotect, args: &[Scalar, Scalar, Scalar], ret: RetScalar },
    CallSpec { sysno: Sysno::Munmap, args: &[Scalar, Scalar], ret: RetScalar },
    CallSpec {
        sysno: Sysno::Pread64,
        args: &[Scalar, OutBuf { len_arg: 2 }, Scalar, Scalar],
        ret: RetScalar,
    },
    CallSpec {
        sysno: Sysno::Pwrite64,
        args: &[Scalar, InBuf { len_arg: 2 }, Scalar, Scalar],
        ret: RetScalar,
    },
    CallSpec { sysno: Sysno::Dup, args: &[Scalar], ret: Fd },
    CallSpec { sysno: Sysno::Dup2, args: &[Scalar, Scalar], ret: Fd },
    CallSpec { sysno: Sysno::Getpid, args: &[], ret: RetScalar },
    CallSpec { sysno: Sysno::Getuid, args: &[], ret: RetScalar },
    CallSpec { sysno: Sysno::Setuid, args: &[Scalar], ret: RetScalar },
    CallSpec { sysno: Sysno::Sendfile, args: &[Scalar, Scalar, Scalar], ret: RetScalar },
    CallSpec { sysno: Sysno::Socket, args: &[Scalar, Scalar], ret: Fd },
    CallSpec { sysno: Sysno::Connect, args: &[Scalar, Scalar], ret: RetScalar },
    CallSpec { sysno: Sysno::Accept, args: &[Scalar], ret: Fd },
    CallSpec {
        sysno: Sysno::Sendto,
        args: &[Scalar, InBuf { len_arg: 2 }, Scalar],
        ret: RetScalar,
    },
    CallSpec {
        sysno: Sysno::Recvfrom,
        args: &[Scalar, OutBuf { len_arg: 2 }, Scalar],
        ret: RetScalar,
    },
    CallSpec { sysno: Sysno::Bind, args: &[Scalar, Scalar], ret: RetScalar },
    CallSpec { sysno: Sysno::Listen, args: &[Scalar], ret: RetScalar },
    CallSpec { sysno: Sysno::Socketpair, args: &[], ret: RetScalar },
    CallSpec { sysno: Sysno::Rename, args: &[InStr, InStr], ret: RetScalar },
    CallSpec { sysno: Sysno::Mkdir, args: &[InStr, Scalar], ret: RetScalar },
    CallSpec { sysno: Sysno::Rmdir, args: &[InStr], ret: RetScalar },
    CallSpec { sysno: Sysno::Link, args: &[InStr, InStr], ret: RetScalar },
    CallSpec { sysno: Sysno::Unlink, args: &[InStr], ret: RetScalar },
    CallSpec { sysno: Sysno::Symlink, args: &[InStr, InStr], ret: RetScalar },
    CallSpec { sysno: Sysno::Chmod, args: &[InStr, Scalar], ret: RetScalar },
    CallSpec { sysno: Sysno::Fchmod, args: &[Scalar, Scalar], ret: RetScalar },
    CallSpec { sysno: Sysno::Ftruncate, args: &[Scalar, Scalar], ret: RetScalar },
    CallSpec {
        sysno: Sysno::Getdents,
        args: &[Scalar, OutBuf { len_arg: 2 }, Scalar],
        ret: RetScalar,
    },
    CallSpec {
        sysno: Sysno::ClockGettime,
        args: &[Scalar, OutStruct { size: 16 }],
        ret: RetScalar,
    },
];

/// Looks up the specification for a syscall; `None` means unsupported —
/// the SDK kills the enclave on such calls (§7).
pub fn spec_for(sysno: Sysno) -> Option<&'static CallSpec> {
    CALL_SPECS.iter().find(|s| s.sysno == sysno)
}

/// The supported syscall set.
pub fn supported() -> Vec<Sysno> {
    CALL_SPECS.iter().map(|s| s.sysno).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn specs_are_unique() {
        let mut nums: Vec<u64> = CALL_SPECS.iter().map(|s| s.sysno.num()).collect();
        nums.sort_unstable();
        let before = nums.len();
        nums.dedup();
        assert_eq!(nums.len(), before, "duplicate call spec");
    }

    #[test]
    fn length_constraints_reference_valid_scalars() {
        // "In the write system call, the third argument specifies the
        // length of the second argument" — every len_arg must point at a
        // Scalar slot within range.
        for spec in CALL_SPECS {
            for arg in spec.args {
                if let ArgSpec::InBuf { len_arg } | ArgSpec::OutBuf { len_arg } = arg {
                    assert!(
                        *len_arg < spec.args.len(),
                        "{:?}: len_arg {len_arg} out of range",
                        spec.sysno
                    );
                    assert_eq!(
                        spec.args[*len_arg],
                        ArgSpec::Scalar,
                        "{:?}: len_arg {len_arg} must be a scalar",
                        spec.sysno
                    );
                }
            }
        }
    }

    #[test]
    fn write_spec_matches_paper_example() {
        let spec = spec_for(Sysno::Write).unwrap();
        assert_eq!(spec.args[1], ArgSpec::InBuf { len_arg: 2 });
    }

    #[test]
    fn mmap_returns_untrusted_pointer() {
        assert_eq!(spec_for(Sysno::Mmap).unwrap().ret, RetSpec::UntrustedPointer);
    }

    #[test]
    fn unsupported_calls_have_no_spec() {
        assert!(spec_for(Sysno::Ioctl).is_none());
        assert!(spec_for(Sysno::Execve).is_none());
        assert!(spec_for(Sysno::Fork).is_none());
    }

    #[test]
    fn coverage_is_substantial() {
        assert!(supported().len() >= 35, "SDK should cover the bulk of the surface");
    }
}
