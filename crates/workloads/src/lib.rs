//! Workloads reproducing the paper's evaluation programs (§9, Tables 3–5).
//!
//! Every workload is written against [`veil_os::sys::Sys`] through a
//! [`driver::Driver`], so the *same* program runs:
//!
//! * natively in a baseline CVM, or under Veil with no service in use
//!   (background-impact runs), both through one
//!   [`driver::KernelDriver`] over the one CVM type;
//! * shielded inside a VeilS-ENC enclave (Fig. 5), through
//!   [`driver::EnclaveDriver`];
//! * with kaudit or VeilS-LOG auditing active (Fig. 6).
//!
//! The compute kernels are real (LZ77 compression, B-tree inserts, AES/
//! SHA self-tests, HTTP parsing); per-operation `burn()` charges model
//! the instruction streams our interpreter does not execute, calibrated
//! so the native syscall/log *rates* land near the paper's reported
//! per-second figures (Fig. 5/6 captions).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compress;
pub mod driver;
pub mod http;
pub mod kvstore;
pub mod mbedtls;
pub mod memcached;
pub mod minidb;
pub mod openssl;
pub mod spec_cpu;
pub mod tenant;

use veil_os::error::Errno;

/// Result of one workload run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkloadStats {
    /// Application-level operations completed (requests, inserts, ...).
    pub ops: u64,
    /// Payload bytes processed.
    pub bytes: u64,
    /// A workload-specific checksum so native and shielded runs can be
    /// compared for *functional* equality, not just performance.
    pub checksum: u64,
}

/// A runnable workload.
pub trait Workload {
    /// Display name (matches the paper's tables).
    fn name(&self) -> &'static str;

    /// Runs to completion under `driver`.
    ///
    /// # Errors
    ///
    /// Propagates syscall failures — a workload error fails the bench.
    fn run(&mut self, driver: &mut dyn driver::Driver) -> Result<WorkloadStats, Errno>;
}

/// Folds bytes into a checksum (FNV-1a) for functional comparisons.
pub fn fnv1a(acc: u64, bytes: &[u8]) -> u64 {
    let mut h = if acc == 0 { 0xcbf2_9ce4_8422_2325 } else { acc };
    for b in bytes {
        h ^= *b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_is_deterministic_and_sensitive() {
        assert_eq!(fnv1a(0, b"abc"), fnv1a(0, b"abc"));
        assert_ne!(fnv1a(0, b"abc"), fnv1a(0, b"abd"));
        assert_ne!(fnv1a(0, b""), 0);
    }
}
