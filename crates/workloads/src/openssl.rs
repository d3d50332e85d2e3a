//! An OpenSSL-speed-like crypto throughput benchmark (Table 5,
//! `pts/openssl`): long hashing/encryption bursts over in-memory buffers
//! with occasional audited result writes — the *lowest* audit rate of
//! the Fig. 6 programs (~1.5k logs/s).

use crate::driver::Driver;
use crate::{fnv1a, Workload, WorkloadStats};
use veil_crypto::{Aes128, Drbg, Sha256};
use veil_os::error::Errno;
use veil_os::sys::OpenFlags;

/// Modelled cycles per hashed/encrypted byte beyond the real work the
/// host executes (vectorized rounds etc.).
pub const CRYPTO_CYCLES_PER_BYTE: u64 = 18;

/// The benchmark: `rounds` bursts of `burst_len` bytes each.
#[derive(Debug, Clone)]
pub struct OpensslWorkload {
    /// Bursts to run.
    pub rounds: usize,
    /// Bytes per burst.
    pub burst_len: usize,
}

impl Workload for OpensslWorkload {
    fn name(&self) -> &'static str {
        "OpenSSL"
    }

    fn run(&mut self, driver: &mut dyn Driver) -> Result<WorkloadStats, Errno> {
        let (rounds, burst_len) = (self.rounds, self.burst_len);
        let mut stats = WorkloadStats::default();
        driver.shielded(&mut |sys| {
            let results = sys.open("/data/openssl.csv", OpenFlags::wronly_create_trunc())?;
            let mut drbg = Drbg::from_seed(b"openssl-speed");
            let mut buf = vec![0u8; burst_len];
            for round in 0..rounds {
                drbg.fill(&mut buf);
                // SHA-256 the burst, then AES-CTR it — both real.
                let digest = Sha256::digest(&buf);
                let aes = Aes128::new(&digest[..16].try_into().expect("16"));
                aes.ctr_apply(&digest[16..28].try_into().expect("12"), 0, &mut buf);
                sys.burn(burst_len as u64 * CRYPTO_CYCLES_PER_BYTE);
                // One audited write per burst (the results row).
                let row = format!("round,{round},sha256+aes,{burst_len}\n");
                sys.write(results, row.as_bytes())?;
                stats.ops += 1;
                stats.bytes += burst_len as u64;
                stats.checksum = fnv1a(stats.checksum, &digest);
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
    fn workload_runs_and_is_deterministic() {
        let run = || {
            let mut cvm = veil_services::CvmBuilder::new().frames(4096).build_native().unwrap();
            let pid = cvm.spawn();
            let mut d = crate::driver::KernelDriver { cvm: &mut cvm, pid };
            OpensslWorkload { rounds: 10, burst_len: 4096 }.run(&mut d).unwrap()
        };
        let a = run();
        let b = run();
        assert_eq!(a, b);
        assert_eq!(a.ops, 10);
        assert_eq!(a.bytes, 40960);
    }
}
