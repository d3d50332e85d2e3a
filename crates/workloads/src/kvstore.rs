//! An UnQLite-like embedded key/value store.
//!
//! Fig. 5/Table 4: "ran provided huge-db test which inserts 1 million
//! random entries into a test database". The store is a bucketed hash
//! file: keys hash to one of `BUCKETS` file regions; inserts append a
//! record to the bucket and rewrite the bucket header — one `pwrite` per
//! insert, the highest syscall rate of the Fig. 5 programs (35.5k/s).

use crate::driver::Driver;
use crate::{fnv1a, Workload, WorkloadStats};
use veil_crypto::Drbg;
use veil_os::error::Errno;
use veil_os::sys::OpenFlags;

const BUCKETS: u64 = 256;
const BUCKET_REGION: u64 = 16 * 1024;

/// Per-insert compute (hashing, record encoding, cache management) —
/// calibrated for the paper's ~35% overhead at ~35.5k exits/s.
pub const INSERT_CYCLES: u64 = 42_000;

fn bucket_of(key: &[u8]) -> u64 {
    fnv1a(0, key) % BUCKETS
}

/// The UnQLite workload.
#[derive(Debug, Clone)]
pub struct UnqliteWorkload {
    /// Entries for the huge-db test (paper: 1M; scaled by benches).
    pub entries: usize,
}

impl Workload for UnqliteWorkload {
    fn name(&self) -> &'static str {
        "UnQlite"
    }

    fn run(&mut self, driver: &mut dyn Driver) -> Result<WorkloadStats, Errno> {
        let entries = self.entries;
        let mut stats = WorkloadStats::default();
        driver.shielded(&mut |sys| {
            let db = sys.open("/data/unqlite.db", OpenFlags::rdwr_create())?;
            let mut drbg = Drbg::from_seed(b"unqlite-huge-db");
            let mut cursors = vec![8u64; BUCKETS as usize]; // per-bucket append offset
            for _ in 0..entries {
                let mut key = [0u8; 16];
                let mut value = [0u8; 24];
                drbg.fill(&mut key);
                drbg.fill(&mut value);
                sys.burn(INSERT_CYCLES);
                let b = bucket_of(&key);
                let mut record = Vec::with_capacity(40);
                record.extend_from_slice(&key);
                record.extend_from_slice(&value);
                let offset = b * BUCKET_REGION + (cursors[b as usize] % (BUCKET_REGION - 48));
                sys.pwrite(db, &record, offset)?;
                cursors[b as usize] += record.len() as u64;
                stats.ops += 1;
                stats.bytes += record.len() as u64;
                stats.checksum = fnv1a(stats.checksum, &record);
            }
            sys.close(db)
        })?;
        Ok(stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use veil_os::sys::Sys;

    #[test]
    fn buckets_are_stable_and_bounded() {
        let b1 = bucket_of(b"some key");
        let b2 = bucket_of(b"some key");
        assert_eq!(b1, b2);
        assert!(b1 < BUCKETS);
        assert_ne!(bucket_of(b"some key"), bucket_of(b"other key"));
    }

    #[test]
    fn workload_runs_and_writes() {
        let mut cvm = veil_services::CvmBuilder::new().frames(4096).build_native().unwrap();
        let pid = cvm.spawn();
        let mut d = crate::driver::KernelDriver { cvm: &mut cvm, pid };
        let stats = UnqliteWorkload { entries: 300 }.run(&mut d).unwrap();
        assert_eq!(stats.ops, 300);
        assert_eq!(stats.bytes, 300 * 40);
        let mut sys = cvm.sys(pid);
        assert!(sys.stat("/data/unqlite.db").unwrap().size > 0);
    }

    #[test]
    fn checksum_is_deterministic() {
        let run = || {
            let mut cvm = veil_services::CvmBuilder::new().frames(4096).build_native().unwrap();
            let pid = cvm.spawn();
            let mut d = crate::driver::KernelDriver { cvm: &mut cvm, pid };
            UnqliteWorkload { entries: 50 }.run(&mut d).unwrap().checksum
        };
        assert_eq!(run(), run());
    }
}
