//! Kernel error types.

use std::fmt;
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
    /// The monitor (or its gate) rejected a delegated request.
    MonitorRefused(String),
    /// The kernel is misconfigured for the attempted operation.
    Config(String),
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
            OsError::MonitorRefused(r) => write!(f, "monitor refused: {r}"),
            OsError::Config(r) => write!(f, "kernel configuration error: {r}"),
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errno_values_match_linux() {
        assert_eq!(Errno::ENOENT as i64, 2);
        assert_eq!(Errno::EINVAL as i64, 22);
        assert_eq!(Errno::ENOSYS as i64, 38);
        assert_eq!(Errno::ENOENT.as_neg_ret(), -2);
    }

    #[test]
    fn display_nonempty() {
        assert_eq!(format!("{}", Errno::EBADF), "EBADF");
        assert!(!format!("{}", OsError::OutOfFrames).is_empty());
    }
}
