//! Per-tenant request sessions for the multi-tenant fleet simulation.
//!
//! The fleet load generator (`veil-fleet`) multiplexes thousands of
//! simulated tenants onto a handful of CVM shards. Each tenant owns a
//! long-lived [`TenantSession`] — open descriptors it reuses across
//! requests, the way a real multi-tenant frontend holds per-customer
//! connections — and serves individual requests through
//! [`TenantSession::run_request`]. A request is a short audited syscall
//! sequence plus a `burn()` modelling the service compute, shaped after
//! the Fig. 5/6 workloads:
//!
//! * [`TenantKind::Http`] — nginx-style: positioned read of the
//!   tenant's content file, response send/recv over its connection;
//! * [`TenantKind::Kvstore`] — UnQLite-style: positioned write then
//!   positioned read-back of a record in the tenant's store file;
//! * [`TenantKind::Memcached`] — memaslap-style: 90:10 GET:SET command
//!   round trip over the tenant's connection.
//!
//! Everything is a pure function of `(tenant, sequence number)`: no
//! clocks, no host randomness. Given the same syscall surface, two runs
//! of the same tenant produce the same checksum and the same audited
//! syscall stream — which is what lets the fleet assert byte-identical
//! trace digests across worker counts.

use crate::fnv1a;
use veil_os::error::Errno;
use veil_os::sys::{OpenFlags, Sys};

/// Which per-request syscall/compute profile a tenant exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TenantKind {
    /// Static-content serving: pread + socket round trip.
    Http,
    /// Embedded KV store: pwrite + pread on the tenant's store file.
    Kvstore,
    /// In-memory cache: command round trip over the connection.
    Memcached,
}

impl TenantKind {
    /// All kinds, in display order.
    pub const ALL: [TenantKind; 3] = [TenantKind::Http, TenantKind::Kvstore, TenantKind::Memcached];

    /// Stable lowercase label (JSON field values, metric op labels).
    pub fn label(self) -> &'static str {
        match self {
            TenantKind::Http => "http",
            TenantKind::Kvstore => "kvstore",
            TenantKind::Memcached => "memcached",
        }
    }

    /// Base service compute per request, calibrated against the per-op
    /// burns of the corresponding Fig. 5 workloads (scaled down: a fleet
    /// request is one operation, not a batch).
    fn base_cycles(self) -> u64 {
        match self {
            TenantKind::Http => 45_000,
            TenantKind::Kvstore => 22_000,
            TenantKind::Memcached => 60_000,
        }
    }

    /// Per-request end-to-end latency SLO for this profile, in model
    /// cycles. Calibrated at 20x the base service compute: an unloaded
    /// shard (service + a couple of relays) sits far under it, while
    /// open-loop queueing under overload blows through it — so SLO
    /// breach counts measure *load*, not workload identity.
    pub fn slo_cycles(self) -> u64 {
        self.base_cycles() * 20
    }
}

/// A tenant's long-lived descriptors plus its running functional totals.
#[derive(Debug)]
pub struct TenantSession {
    kind: TenantKind,
    tenant: u64,
    /// The tenant's content/store file.
    data_fd: i32,
    /// Client half of the tenant's connection.
    client: i32,
    /// Server half of the tenant's connection.
    server: i32,
    /// Requests completed so far.
    pub reqs: u64,
    /// Payload bytes moved so far.
    pub bytes: u64,
    /// FNV-1a over every response — functional-equality witness.
    pub checksum: u64,
}

impl TenantSession {
    /// Opens the tenant's descriptors and seeds its content.
    ///
    /// # Errors
    ///
    /// Propagates syscall failures (descriptor exhaustion fails the run).
    pub fn open(sys: &mut dyn Sys, kind: TenantKind, tenant: u64) -> Result<Self, Errno> {
        match sys.mkdir("/srv") {
            Ok(()) | Err(Errno::EEXIST) => {}
            Err(e) => return Err(e),
        }
        let path = format!("/srv/tenant{tenant}.{}", kind.label());
        let data_fd = sys.open(&path, OpenFlags::rdwr_create())?;
        // Seed one page of tenant-unique content so preads return data.
        let seed = format!("tenant{tenant}-content-{:016x}", fnv1a(0, path.as_bytes()));
        sys.pwrite(data_fd, seed.as_bytes(), 0)?;
        let (client, server) = sys.socketpair()?;
        Ok(TenantSession { kind, tenant, data_fd, client, server, reqs: 0, bytes: 0, checksum: 0 })
    }

    /// Serves request number `k` for this tenant: the audited syscall
    /// sequence plus the service-compute burn. Deterministic in
    /// `(tenant, k)`.
    ///
    /// # Errors
    ///
    /// Propagates syscall failures — a failed request fails the shard.
    pub fn run_request(&mut self, sys: &mut dyn Sys, k: u64) -> Result<(), Errno> {
        // Spread service compute deterministically (±25% around the base)
        // so per-request latency has a distribution, not a constant.
        let base = self.kind.base_cycles();
        let jitter = fnv1a(self.tenant.wrapping_mul(0x9e37_79b9_7f4a_7c15), &k.to_le_bytes());
        let cycles = base - base / 4 + jitter % (base / 2);
        match self.kind {
            TenantKind::Http => {
                let req = format!("GET /t{}/obj{} HTTP/1.1\r\n\r\n", self.tenant, k % 64);
                sys.send(self.client, req.as_bytes())?;
                let mut inbound = [0u8; 128];
                let n = sys.recv(self.server, &mut inbound)?;
                let mut body = [0u8; 48];
                let got = sys.pread(self.data_fd, &mut body, (k % 4) * 8)?;
                sys.burn(cycles);
                sys.send(self.server, &body[..got])?;
                let mut resp = [0u8; 64];
                let m = sys.recv(self.client, &mut resp)?;
                self.bytes += (n + m) as u64;
                self.checksum = fnv1a(self.checksum, &resp[..m]);
            }
            TenantKind::Kvstore => {
                let record = format!("t{}-rec{}-v{:08x}", self.tenant, k % 128, jitter as u32);
                let offset = (k % 128) * 64;
                sys.pwrite(self.data_fd, record.as_bytes(), offset)?;
                sys.burn(cycles);
                let mut back = [0u8; 32];
                let got = sys.pread(self.data_fd, &mut back, offset)?;
                self.bytes += (record.len() + got) as u64;
                self.checksum = fnv1a(self.checksum, &back[..got]);
            }
            TenantKind::Memcached => {
                let key = jitter % 256;
                let cmd = if k.is_multiple_of(10) {
                    format!("set key{key} value-{}-{k}\r\n", self.tenant)
                } else {
                    format!("get key{key}\r\n")
                };
                sys.send(self.client, cmd.as_bytes())?;
                let mut req = [0u8; 96];
                let n = sys.recv(self.server, &mut req)?;
                sys.burn(cycles);
                sys.send(self.server, &req[..n.min(24)])?;
                let mut resp = [0u8; 32];
                let m = sys.recv(self.client, &mut resp)?;
                self.bytes += (n + m) as u64;
                self.checksum = fnv1a(self.checksum, &resp[..m]);
            }
        }
        self.reqs += 1;
        Ok(())
    }

    /// Closes the tenant's descriptors.
    ///
    /// # Errors
    ///
    /// Propagates close failures (double close is a harness bug).
    pub fn close(&mut self, sys: &mut dyn Sys) -> Result<(), Errno> {
        sys.close(self.client)?;
        sys.close(self.server)?;
        sys.close(self.data_fd)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn native_run(kind: TenantKind, tenant: u64, reqs: u64) -> (u64, u64) {
        let mut cvm = veil_services::CvmBuilder::new().frames(4096).build_native().unwrap();
        let pid = cvm.spawn();
        let mut sys = cvm.sys(pid);
        let mut session = TenantSession::open(&mut sys, kind, tenant).unwrap();
        for k in 0..reqs {
            session.run_request(&mut sys, k).unwrap();
        }
        session.close(&mut sys).unwrap();
        (session.checksum, session.bytes)
    }

    #[test]
    fn requests_are_deterministic_per_tenant() {
        for kind in TenantKind::ALL {
            let a = native_run(kind, 7, 20);
            let b = native_run(kind, 7, 20);
            assert_eq!(a, b, "{}: same tenant must replay identically", kind.label());
            let c = native_run(kind, 8, 20);
            assert_ne!(a.0, c.0, "{}: different tenants must diverge", kind.label());
        }
    }

    #[test]
    fn sessions_close_cleanly_and_count() {
        let mut cvm = veil_services::CvmBuilder::new().frames(4096).build_native().unwrap();
        let pid = cvm.spawn();
        let mut sys = cvm.sys(pid);
        let mut s = TenantSession::open(&mut sys, TenantKind::Kvstore, 0).unwrap();
        for k in 0..5 {
            s.run_request(&mut sys, k).unwrap();
        }
        assert_eq!(s.reqs, 5);
        assert!(s.bytes > 0);
        s.close(&mut sys).unwrap();
    }
}
