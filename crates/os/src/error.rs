//! Kernel error types.

use std::fmt;
use veil_hv::HvResponse;
use veil_snp::attest::LaunchError;
use veil_snp::fault::SnpError;
use veil_snp::pt::PtError;

/// POSIX-style error numbers returned to user space.
///
/// Values match Linux x86-64 so audit records and LTP-style tests read
/// naturally.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)] // names are the documentation (POSIX)
pub enum Errno {
    EPERM = 1,
    ENOENT = 2,
    ESRCH = 3,
    EINTR = 4,
    EIO = 5,
    EBADF = 9,
    EAGAIN = 11,
    ENOMEM = 12,
    EACCES = 13,
    EFAULT = 14,
    EBUSY = 16,
    EEXIST = 17,
    ENOTDIR = 20,
    EISDIR = 21,
    EINVAL = 22,
    ENFILE = 23,
    EMFILE = 24,
    EFBIG = 27,
    ENOSPC = 28,
    ESPIPE = 29,
    EROFS = 30,
    EPIPE = 32,
    ERANGE = 34,
    ENAMETOOLONG = 36,
    ENOSYS = 38,
    ENOTEMPTY = 39,
    EADDRINUSE = 98,
    EADDRNOTAVAIL = 99,
    ECONNREFUSED = 111,
    ENOTCONN = 107,
    EKEYREJECTED = 129,
}

impl Errno {
    /// The kernel's negative-return encoding (`-errno`).
    pub fn as_neg_ret(self) -> i64 {
        -(self as i64)
    }
}

impl fmt::Display for Errno {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self:?}")
    }
}

impl std::error::Error for Errno {}

/// Declares [`Refusal`], [`Refusal::ALL`] and [`Refusal::name`] from one
/// table, so the three cannot drift apart.
macro_rules! refusals {
    ($($variant:ident => $name:literal,)*) => {
        /// Why a request was refused: by VeilMon's pointer sanitizer
        /// (§8.1), a protected service's checks (§6), the gate's channel
        /// validation, or the kernel's own configuration checks. A hostile
        /// `Dom_UNT` can trigger any of these at will, so a refusal carries
        /// no payload and builds no string.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        #[allow(missing_docs)] // the name column documents each variant
        pub enum Refusal {
            $($variant,)*
        }

        impl Refusal {
            /// Every refusal reason, in table order.
            pub const ALL: [Refusal; [$($name),*].len()] = [$(Refusal::$variant),*];

            /// The snake_case reason name (`no_gate_ring`,
            /// `bad_module_signature`).
            pub fn name(self) -> &'static str {
                match self {
                    $(Refusal::$variant => $name,)*
                }
            }
        }
    };
}

refusals! {
    // The gate and its per-VCPU channels (Fig. 3, DESIGN §12).
    NoGhcb => "no_ghcb",
    GhcbNotShared => "ghcb_not_shared",
    NoIdcb => "no_idcb",
    IdcbCorrupt => "idcb_corrupt",
    NoGateRing => "no_gate_ring",
    GateRingCorrupt => "gate_ring_corrupt",
    GateRingFull => "gate_ring_full",
    MessageTooLong => "message_too_long",
    HostRefused => "host_refused",
    UnexpectedResponse => "unexpected_response",
    NoService => "no_service",
    // VeilMon (§5, §8.1).
    UnsafePointer => "unsafe_pointer",
    ChannelNotBegun => "channel_not_begun",
    NotLaunched => "not_launched",
    // Kernel modules and VeilS-KCI (§6.1).
    ModuleAlreadyLoaded => "module_already_loaded",
    ModuleNotLoaded => "module_not_loaded",
    MalformedModule => "malformed_module",
    BadModuleSignature => "bad_module_signature",
    UnknownSymbol => "unknown_symbol",
    ModuleFramesShort => "module_frames_short",
    // VeilS-ENC (§6.2).
    NoEnclave => "no_enclave",
    EnclaveUnmapped => "enclave_unmapped",
    EnclaveAliased => "enclave_aliased",
    EnclaveRegionLocked => "enclave_region_locked",
    ThreadExists => "thread_exists",
    NoThread => "no_thread",
    PageNotResident => "page_not_resident",
    PageNotSealed => "page_not_sealed",
    SealInvalid => "seal_invalid",
    NoShareOffer => "no_share_offer",
    // VeilS-LOG (§6.3).
    NoLogStorage => "no_log_storage",
    LogFull => "log_full",
    LogCorrupt => "log_corrupt",
    BadLogCommand => "bad_log_command",
}

impl Refusal {
    /// Classifies a hypervisor response other than the one an exit asked
    /// for: the host's own refusal (its reason string is advisory and is
    /// not kept), or an answer to some other exit, such as a switch that
    /// resumed the wrong domain.
    pub fn of_response(resp: &HvResponse) -> Refusal {
        match resp {
            HvResponse::Refused { .. } => Refusal::HostRefused,
            _ => Refusal::UnexpectedResponse,
        }
    }
}

impl fmt::Display for Refusal {
    /// Prints the reason name (`no_enclave`, `log_full`, ...).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Internal kernel errors (distinct from user-visible [`Errno`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OsError {
    /// The machine model refused an operation (usually an `#NPF`).
    Snp(SnpError),
    /// The SEV firmware refused to launch the boot image.
    Launch(LaunchError),
    /// A page-table operation failed.
    Pt(PtError),
    /// Physical frame pool exhausted.
    OutOfFrames,
    /// A syscall the kernel made on a caller's behalf failed.
    Errno(Errno),
    /// The monitor, a service, the gate or the kernel's own checks
    /// refused the request.
    Refused(Refusal),
    /// The measured-boot check refused to start VeilMon: the launch
    /// measurement differs from the expected one.
    FirmwareRefused {
        /// Measurement the boot was provisioned to expect.
        expected: [u8; 32],
        /// Measurement the firmware recorded at launch.
        actual: [u8; 32],
    },
}

impl fmt::Display for OsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OsError::Snp(e) => write!(f, "{e}"),
            OsError::Launch(e) => write!(f, "{e}"),
            OsError::Pt(e) => write!(f, "{e}"),
            OsError::OutOfFrames => write!(f, "out of physical frames"),
            OsError::Errno(e) => write!(f, "{e}"),
            OsError::Refused(r) => write!(f, "refused: {r}"),
            OsError::FirmwareRefused { expected, actual } => {
                let short =
                    |d: &[u8; 32]| d[..4].iter().map(|b| format!("{b:02x}")).collect::<String>();
                write!(
                    f,
                    "firmware refused boot: image measures {}.. but {}.. expected",
                    short(actual),
                    short(expected)
                )
            }
        }
    }
}

impl std::error::Error for OsError {}

impl From<SnpError> for OsError {
    fn from(e: SnpError) -> Self {
        OsError::Snp(e)
    }
}

impl From<LaunchError> for OsError {
    fn from(e: LaunchError) -> Self {
        OsError::Launch(e)
    }
}

impl From<PtError> for OsError {
    fn from(e: PtError) -> Self {
        OsError::Pt(e)
    }
}

impl From<Errno> for OsError {
    fn from(e: Errno) -> Self {
        OsError::Errno(e)
    }
}

impl From<Refusal> for OsError {
    fn from(r: Refusal) -> Self {
        OsError::Refused(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errno_values_match_linux() {
        assert_eq!(Errno::ENOENT as i64, 2);
        assert_eq!(Errno::EINVAL as i64, 22);
        assert_eq!(Errno::ENOSYS as i64, 38);
        assert_eq!(Errno::EFBIG as i64, 27);
        assert_eq!(Errno::ENOENT.as_neg_ret(), -2);
    }

    #[test]
    fn refusal_names_unique_snake_case_and_displayed() {
        let mut names: Vec<&str> = Refusal::ALL.iter().map(|r| r.name()).collect();
        for name in &names {
            assert!(
                name.split('_').all(|w| !w.is_empty() && w.bytes().all(|b| b.is_ascii_lowercase())),
                "{name} is not snake_case"
            );
        }
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Refusal::ALL.len(), "refusal names must be unique");
        for r in Refusal::ALL {
            // Each name is its variant's name in snake_case.
            let mut snake = String::new();
            for (i, c) in format!("{r:?}").char_indices() {
                if i > 0 && c.is_ascii_uppercase() {
                    snake.push('_');
                }
                snake.push(c.to_ascii_lowercase());
            }
            assert_eq!(r.name(), snake);
            assert_eq!(r.to_string(), r.name());
            assert!(OsError::from(r).to_string().contains(r.name()));
        }
    }

    #[test]
    fn hv_responses_classify() {
        let refused = HvResponse::Refused { reason: "switch refused by host policy" };
        assert_eq!(Refusal::of_response(&refused), Refusal::HostRefused);
        assert_eq!(
            Refusal::of_response(&HvResponse::PageStateChanged),
            Refusal::UnexpectedResponse
        );
    }

    #[test]
    fn display_nonempty() {
        assert_eq!(format!("{}", Errno::EBADF), "EBADF");
        assert!(!format!("{}", OsError::OutOfFrames).is_empty());
    }
}
