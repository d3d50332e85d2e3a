//! Syscall numbers and classification.
//!
//! Numbers follow Linux x86-64 so the audit ruleset of §9.2 (footnote 1)
//! can be written exactly as the paper configures `auditctl`, and so the
//! SDK's sanitizer specs (§7) key off realistic identifiers.

use std::fmt;

/// Declares [`Sysno`], [`Sysno::ALL`] and [`Sysno::name`] from one table,
/// so the three cannot drift apart.
macro_rules! sysnos {
    ($($variant:ident = $num:literal => $name:literal,)*) => {
        /// Linux x86-64 syscall numbers (subset used by the simulation).
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        #[allow(missing_docs)] // names mirror the syscall table
        pub enum Sysno {
            $($variant = $num,)*
        }

        impl Sysno {
            /// All syscalls the simulation knows about.
            pub const ALL: [Sysno; [$($num),*].len()] = [$(Sysno::$variant),*];

            /// The lowercase syscall name (`open`, `pwrite64`,
            /// `clockgettime`): the variant name lowercased, with no
            /// separators added. Audit records carry it after their
            /// fixed fields.
            pub fn name(self) -> &'static str {
                match self {
                    $(Sysno::$variant => $name,)*
                }
            }
        }
    };
}

sysnos! {
    Read = 0 => "read",
    Write = 1 => "write",
    Open = 2 => "open",
    Close = 3 => "close",
    Stat = 4 => "stat",
    Fstat = 5 => "fstat",
    Lseek = 8 => "lseek",
    Mmap = 9 => "mmap",
    Mprotect = 10 => "mprotect",
    Munmap = 11 => "munmap",
    Brk = 12 => "brk",
    Ioctl = 16 => "ioctl",
    Pread64 = 17 => "pread64",
    Pwrite64 = 18 => "pwrite64",
    Readv = 19 => "readv",
    Writev = 20 => "writev",
    Access = 21 => "access",
    Pipe = 22 => "pipe",
    Dup = 32 => "dup",
    Dup2 = 33 => "dup2",
    Nanosleep = 35 => "nanosleep",
    Getpid = 39 => "getpid",
    Sendfile = 40 => "sendfile",
    Socket = 41 => "socket",
    Connect = 42 => "connect",
    Accept = 43 => "accept",
    Sendto = 44 => "sendto",
    Recvfrom = 45 => "recvfrom",
    Sendmsg = 46 => "sendmsg",
    Recvmsg = 47 => "recvmsg",
    Bind = 49 => "bind",
    Listen = 50 => "listen",
    Socketpair = 53 => "socketpair",
    Clone = 56 => "clone",
    Fork = 57 => "fork",
    Vfork = 58 => "vfork",
    Execve = 59 => "execve",
    Exit = 60 => "exit",
    Rename = 82 => "rename",
    Mkdir = 83 => "mkdir",
    Rmdir = 84 => "rmdir",
    Creat = 85 => "creat",
    Link = 86 => "link",
    Unlink = 87 => "unlink",
    Symlink = 88 => "symlink",
    Chmod = 90 => "chmod",
    Fchmod = 91 => "fchmod",
    Truncate = 76 => "truncate",
    Ftruncate = 77 => "ftruncate",
    Getdents = 78 => "getdents",
    Getuid = 102 => "getuid",
    Setuid = 105 => "setuid",
    Setreuid = 113 => "setreuid",
    Setresuid = 117 => "setresuid",
    ClockGettime = 228 => "clockgettime",
    Openat = 257 => "openat",
    Mknodat = 259 => "mknodat",
    Unlinkat = 263 => "unlinkat",
    Accept4 = 288 => "accept4",
    Dup3 = 292 => "dup3",
    Pipe2 = 293 => "pipe2",
    Splice = 275 => "splice",
}

impl Sysno {
    /// The raw syscall number.
    pub fn num(self) -> u64 {
        self as u64
    }
}

impl fmt::Display for Sysno {
    /// Prints the lowercase syscall name (`open`, `sendfile`, ...).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numbers_match_linux() {
        assert_eq!(Sysno::Read.num(), 0);
        assert_eq!(Sysno::Open.num(), 2);
        assert_eq!(Sysno::Mmap.num(), 9);
        assert_eq!(Sysno::Socket.num(), 41);
        assert_eq!(Sysno::Execve.num(), 59);
        assert_eq!(Sysno::Openat.num(), 257);
    }

    #[test]
    fn display_is_lowercase() {
        assert_eq!(format!("{}", Sysno::Open), "open");
        assert_eq!(format!("{}", Sysno::Sendfile), "sendfile");
        assert_eq!(format!("{}", Sysno::ClockGettime), "clockgettime");
    }

    #[test]
    fn all_distinct() {
        let mut nums: Vec<u64> = Sysno::ALL.iter().map(|s| s.num()).collect();
        nums.sort_unstable();
        nums.dedup();
        assert_eq!(nums.len(), Sysno::ALL.len());
        assert_eq!(nums.len(), 62, "every variant, each number once");
        // All five are in `paper_ruleset()`, and the audit decoder finds a
        // record's syscall through `ALL`.
        for s in [Sysno::Mknodat, Sysno::Unlinkat, Sysno::Dup3, Sysno::Pipe2, Sysno::Splice] {
            assert!(Sysno::ALL.contains(&s), "{s:?} missing from ALL");
        }
    }
}
