//! A memcached-like in-memory cache + memaslap-like load generator.
//!
//! Table 5: "ran locally with 4 worker threads and benchmarked using
//! memaslap with 90:10 GET:SET split... and a concurrency level of 16".
//! Used by the §9.1 background benchmark and the Fig. 6 audit benchmark —
//! its very high syscall rate (two audited network calls per op) makes it
//! the worst case for per-record logging (~61k logs/s).

use crate::driver::Driver;
use crate::{fnv1a, Workload, WorkloadStats};
use std::collections::HashMap;
use veil_crypto::Drbg;
use veil_os::error::Errno;

/// Per-op server compute (hashing, slab bookkeeping, worker handoff).
pub const OP_CYCLES: u64 = 230_000;

/// Parses one command: `get <key>` or `set <key> <value>`.
pub fn parse_command(cmd: &str) -> Option<(&str, &str, Option<&str>)> {
    let mut parts = cmd.trim_end().splitn(3, ' ');
    let verb = parts.next()?;
    let key = parts.next()?;
    match verb {
        "get" => Some(("get", key, None)),
        "set" => Some(("set", key, Some(parts.next()?))),
        _ => None,
    }
}

/// The cache server state.
#[derive(Debug, Default)]
pub struct Cache {
    map: HashMap<String, Vec<u8>>,
    /// GET hits.
    pub hits: u64,
    /// GET misses.
    pub misses: u64,
}

impl Cache {
    /// Executes one parsed command, returning the wire response.
    pub fn execute(&mut self, cmd: &str) -> Vec<u8> {
        match parse_command(cmd) {
            Some(("get", key, None)) => match self.map.get(key) {
                Some(v) => {
                    self.hits += 1;
                    let mut out = format!("VALUE {key} {}\r\n", v.len()).into_bytes();
                    out.extend_from_slice(v);
                    out.extend_from_slice(b"\r\nEND\r\n");
                    out
                }
                None => {
                    self.misses += 1;
                    b"END\r\n".to_vec()
                }
            },
            Some(("set", key, Some(value))) => {
                self.map.insert(key.to_string(), value.as_bytes().to_vec());
                b"STORED\r\n".to_vec()
            }
            _ => b"ERROR\r\n".to_vec(),
        }
    }
}

/// The memcached workload: `ops` operations at a 90:10 GET:SET split.
#[derive(Debug, Clone)]
pub struct MemcachedWorkload {
    /// Operations (paper runs 60 s of memaslap; benches scale by count).
    pub ops: usize,
    /// Distinct keys in the working set.
    pub keyspace: u64,
}

impl Workload for MemcachedWorkload {
    fn name(&self) -> &'static str {
        "Memcached"
    }

    fn run(&mut self, driver: &mut dyn Driver) -> Result<WorkloadStats, Errno> {
        let (ops, keyspace) = (self.ops, self.keyspace.max(1));
        let mut stats = WorkloadStats::default();
        driver.shielded(&mut |sys| {
            let mut cache = Cache::default();
            let mut drbg = Drbg::from_seed(b"memaslap");
            let (client, server) = sys.socketpair()?;
            // memaslap warm-up phase: populate the whole working set
            // (uncounted) so the 90:10 phase measures hits.
            for k in 0..keyspace {
                cache.execute(&format!("set key{k} warm"));
            }
            for i in 0..ops {
                // memaslap side: 90:10 GET:SET.
                let key = format!("key{}", drbg.next_below(keyspace));
                let cmd = if i % 10 == 0 {
                    format!("set {key} value-{i}-{}\r\n", drbg.next_u64())
                } else {
                    format!("get {key}\r\n")
                };
                sys.send(client, cmd.as_bytes())?;
                // Server worker: recv, execute, respond.
                let mut req = [0u8; 128];
                let n = sys.recv(server, &mut req)?;
                sys.burn(OP_CYCLES);
                let response =
                    cache.execute(std::str::from_utf8(&req[..n]).map_err(|_| Errno::EINVAL)?);
                sys.send(server, &response)?;
                // Client drains.
                let mut resp = [0u8; 256];
                let m = sys.recv(client, &mut resp)?;
                stats.checksum = fnv1a(stats.checksum, &resp[..m.min(16)]);
                stats.ops += 1;
                stats.bytes += (n + m) as u64;
            }
            sys.close(client)?;
            sys.close(server)?;
            // The 90:10 split must have produced mostly hits.
            assert!(cache.hits > cache.misses, "hits {} misses {}", cache.hits, cache.misses);
            Ok(())
        })?;
        Ok(stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn protocol_roundtrip() {
        let mut c = Cache::default();
        assert_eq!(c.execute("set k hello"), b"STORED\r\n");
        let got = c.execute("get k");
        assert!(got.starts_with(b"VALUE k 5\r\nhello"));
        assert_eq!(c.execute("get missing"), b"END\r\n");
        assert_eq!(c.execute("flush everything"), b"ERROR\r\n");
        assert_eq!((c.hits, c.misses), (1, 1));
    }

    #[test]
    fn parser_edge_cases() {
        assert_eq!(parse_command("get k\r\n"), Some(("get", "k", None)));
        assert_eq!(parse_command("set k v"), Some(("set", "k", Some("v"))));
        assert_eq!(parse_command("set k"), None, "set without value");
        assert_eq!(parse_command(""), None);
    }

    #[test]
    fn workload_runs() {
        let mut cvm = veil_services::CvmBuilder::new().frames(4096).build_native().unwrap();
        let pid = cvm.spawn();
        let mut d = crate::driver::KernelDriver { cvm: &mut cvm, pid };
        let stats = MemcachedWorkload { ops: 100, keyspace: 20 }.run(&mut d).unwrap();
        assert_eq!(stats.ops, 100);
        assert!(stats.bytes > 0);
    }
}
