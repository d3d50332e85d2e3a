//! A SPEC-CPU-like compute kernel (§9.1 "background system impact").
//!
//! The paper runs SPEC CPU 2006 inside native and Veil CVMs to show <2%
//! difference under normal execution. This workload is the analogue: a
//! compute-dominated kernel (prime sieving + matrix-ish mixing over a
//! mmapped working set) with only the syscalls a real SPEC run performs
//! (input read at start, result write at end).

use crate::driver::Driver;
use crate::{fnv1a, Workload, WorkloadStats};
use veil_os::error::Errno;
use veil_os::sys::OpenFlags;

/// Compute cycles per inner iteration.
pub const ITER_CYCLES: u64 = 2_000;

/// The compute workload.
#[derive(Debug, Clone)]
pub struct SpecCpuWorkload {
    /// Outer iterations (each ~[`ITER_CYCLES`]×64 of modelled compute).
    pub iterations: usize,
}

impl Workload for SpecCpuWorkload {
    fn name(&self) -> &'static str {
        "SPEC-like compute"
    }

    fn run(&mut self, driver: &mut dyn Driver) -> Result<WorkloadStats, Errno> {
        let iterations = self.iterations;
        let mut stats = WorkloadStats::default();
        driver.shielded(&mut |sys| {
            // Working set in real (simulated) process memory.
            let ws_len = 16 * 4096;
            let ws = sys.mmap(ws_len)?;
            let mut state = [0x9e37_79b9_7f4a_7c15u64; 8];
            for i in 0..iterations {
                // A real mixing kernel (xorshift lanes + sieve step).
                for _ in 0..64 {
                    for l in 0..8 {
                        let mut x = state[l];
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                        state[l] = x.wrapping_add(state[(l + 1) % 8]);
                    }
                }
                sys.burn(64 * ITER_CYCLES);
                // Touch the working set occasionally (cache behaviour).
                if i % 16 == 0 {
                    let offset = (state[0] % (ws_len as u64 - 64)) & !7;
                    sys.mem_write(ws + offset, &state[1].to_le_bytes())?;
                }
                stats.ops += 1;
            }
            stats.checksum = fnv1a(0, &state[0].to_le_bytes());
            let out = sys.open("/data/spec.out", OpenFlags::wronly_create_trunc())?;
            sys.write(out, format!("{:x}", state[0]).as_bytes())?;
            sys.close(out)?;
            sys.munmap(ws, ws_len)
        })?;
        Ok(stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compute_dominates_cycles() {
        let mut cvm = veil_services::CvmBuilder::new().frames(4096).build_native().unwrap();
        let pid = cvm.spawn();
        let before = cvm.hv.machine.cycles().snapshot();
        let mut d = crate::driver::KernelDriver { cvm: &mut cvm, pid };
        let stats = SpecCpuWorkload { iterations: 200 }.run(&mut d).unwrap();
        assert_eq!(stats.ops, 200);
        let delta = cvm.hv.machine.cycles().since(&before);
        let compute = delta.of(veil_snp::cost::CostCategory::Compute);
        assert!(
            compute * 10 > delta.total() * 9,
            "compute {} of {} should dominate",
            compute,
            delta.total()
        );
    }

    #[test]
    fn deterministic_checksum() {
        let run = || {
            let mut cvm = veil_services::CvmBuilder::new().frames(4096).build_native().unwrap();
            let pid = cvm.spawn();
            let mut d = crate::driver::KernelDriver { cvm: &mut cvm, pid };
            SpecCpuWorkload { iterations: 50 }.run(&mut d).unwrap().checksum
        };
        assert_eq!(run(), run());
    }
}
