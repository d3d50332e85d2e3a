//! HTTP file servers + an ApacheBench-like load generator.
//!
//! One engine, two paper workloads:
//!
//! * **Lighttpd** (Fig. 5/Table 4): single worker, shielded in the
//!   enclave, serving 10 KB files to `ab` — the large response copies
//!   make syscall-redirect the dominant overhead source.
//! * **NGINX** (Fig. 6/Table 5 and the §9.1 background benchmark):
//!   two workers, audited by kaudit / VeilS-LOG.
//!
//! The protocol is a faithful HTTP/1.0 subset: request line parsing,
//! Content-Length response headers, 404s for missing files.

use crate::driver::Driver;
use crate::{fnv1a, Workload, WorkloadStats};
use veil_crypto::Drbg;
use veil_os::error::Errno;
use veil_os::sys::{Fd, OpenFlags, Sys};

/// Lighttpd per-request server compute (parsing, routing, logging,
/// event loop) — the dominant native cost.
pub const LIGHTTPD_REQUEST_CYCLES: u64 = 460_000;

/// NGINX per-request compute (heavier config, access logging, two
/// workers' coordination).
pub const NGINX_REQUEST_CYCLES: u64 = 1_050_000;

/// Client-side compute per request (ab bookkeeping).
pub const CLIENT_CYCLES: u64 = 60_000;

/// Parses `GET <path> HTTP/1.x`, returning the path.
pub fn parse_request(req: &[u8]) -> Option<&str> {
    let text = std::str::from_utf8(req).ok()?;
    let line = text.lines().next()?;
    let mut parts = line.split_whitespace();
    if parts.next()? != "GET" {
        return None;
    }
    let path = parts.next()?;
    let version = parts.next()?;
    if !version.starts_with("HTTP/1.") {
        return None;
    }
    Some(path)
}

/// Builds a response header.
pub fn response_header(status: u16, body_len: usize) -> String {
    let text = match status {
        200 => "OK",
        404 => "Not Found",
        _ => "Error",
    };
    format!("HTTP/1.0 {status} {text}\r\nContent-Length: {body_len}\r\nServer: veil-httpd\r\n\r\n")
}

/// Serves exactly one connection: read request, map path to `/www`,
/// respond. Returns bytes sent.
pub fn serve_connection(sys: &mut dyn Sys, conn: Fd, request_cycles: u64) -> Result<usize, Errno> {
    let mut req = [0u8; 512];
    let n = sys.recv(conn, &mut req)?;
    sys.burn(request_cycles);
    let (status, body) = match parse_request(&req[..n]) {
        Some(path) => {
            let fs_path = format!("/www{path}");
            match sys.open(&fs_path, OpenFlags::rdonly()) {
                Ok(fd) => {
                    let size = sys.fstat(fd)?.size as usize;
                    let mut body = vec![0u8; size];
                    sys.read(fd, &mut body)?;
                    sys.close(fd)?;
                    (200u16, body)
                }
                Err(_) => (404, b"not found".to_vec()),
            }
        }
        None => (404, b"bad request".to_vec()),
    };
    let header = response_header(status, body.len());
    let mut sent = sys.send(conn, header.as_bytes())?;
    sent += sys.send(conn, &body)?;
    sys.close(conn)?;
    Ok(sent)
}

/// The web-server workload: N requests for a file of `file_size` bytes,
/// driven ab-style. `workers` only scales the modelled server compute
/// (the simulation is single-threaded).
#[derive(Debug, Clone)]
pub struct HttpWorkload {
    /// Which paper program this instance models.
    pub label: &'static str,
    /// Requests to serve (paper: 10,000).
    pub requests: usize,
    /// Served file size (paper: 10 KB).
    pub file_size: usize,
    /// Worker threads (lighttpd: 1, nginx: 2).
    pub workers: u32,
    /// Listening port.
    pub port: u16,
    /// Per-request server compute.
    pub request_cycles: u64,
}

impl HttpWorkload {
    /// The Fig. 5 lighttpd configuration (scaled request count).
    pub fn lighttpd(requests: usize) -> Self {
        HttpWorkload {
            label: "Lighttpd",
            requests,
            file_size: 10 * 1024,
            workers: 1,
            port: 8080,
            request_cycles: LIGHTTPD_REQUEST_CYCLES,
        }
    }

    /// The Fig. 6 nginx configuration.
    pub fn nginx(requests: usize) -> Self {
        HttpWorkload {
            label: "NGINX",
            requests,
            file_size: 10 * 1024,
            workers: 2,
            port: 8090,
            request_cycles: NGINX_REQUEST_CYCLES,
        }
    }
}

impl Workload for HttpWorkload {
    fn name(&self) -> &'static str {
        self.label
    }

    fn run(&mut self, driver: &mut dyn Driver) -> Result<WorkloadStats, Errno> {
        let (requests, file_size, port, workers) =
            (self.requests, self.file_size, self.port, self.workers);
        let request_cycles = self.request_cycles;
        // Untrusted setup: document root + content.
        driver.untrusted(&mut |sys| {
            let mut drbg = Drbg::from_seed(b"www-content");
            let mut body = vec![0u8; file_size];
            drbg.fill(&mut body);
            // Mildly compressible content like a real page.
            for b in body.iter_mut().step_by(3) {
                *b = b'a';
            }
            let fd = sys.open("/www/index.html", OpenFlags::wronly_create_trunc())?;
            sys.write(fd, &body)?;
            sys.close(fd)
        })?;

        // Shielded: server socket setup.
        let server_fd = std::cell::Cell::new(-1);
        driver.shielded(&mut |sys| {
            let fd = sys.socket()?;
            sys.bind(fd, port)?;
            sys.listen(fd)?;
            server_fd.set(fd);
            Ok(())
        })?;

        let mut stats = WorkloadStats::default();
        let client_fd = std::cell::Cell::new(-1);
        for i in 0..requests {
            // ab: connect + send request (untrusted).
            driver.untrusted(&mut |sys| {
                let c = sys.socket()?;
                sys.connect(c, port)?;
                sys.burn(CLIENT_CYCLES);
                sys.send(c, b"GET /index.html HTTP/1.0\r\nUser-Agent: ab\r\n\r\n")?;
                client_fd.set(c);
                Ok(())
            })?;
            // Server: accept + serve (shielded).
            let srv = server_fd.get();
            let mut served = 0usize;
            driver.shielded(&mut |sys| {
                let conn = sys.accept(srv)?;
                // Scale for the extra worker capacity (amortized).
                if workers > 1 {
                    sys.burn(request_cycles / (2 * workers as u64));
                }
                served = serve_connection(sys, conn, request_cycles)?;
                Ok(())
            })?;
            // ab: drain the response, verify status (untrusted).
            driver.untrusted(&mut |sys| {
                let c = client_fd.get();
                let mut buf = vec![0u8; file_size + 256];
                let mut got = 0usize;
                loop {
                    match sys.recv(c, &mut buf[got..]) {
                        Ok(0) => break,
                        Ok(n) => got += n,
                        Err(Errno::EAGAIN) => break,
                        Err(e) => return Err(e),
                    }
                    if got == buf.len() {
                        break;
                    }
                }
                if !buf.starts_with(b"HTTP/1.0 200 OK") {
                    return Err(Errno::EIO);
                }
                stats.checksum = fnv1a(stats.checksum, &buf[..64.min(got)]);
                sys.close(c)
            })?;
            stats.ops += 1;
            stats.bytes += served as u64;
            let _ = i;
        }
        Ok(stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_parsing() {
        assert_eq!(parse_request(b"GET /index.html HTTP/1.0\r\n\r\n"), Some("/index.html"));
        assert_eq!(parse_request(b"GET / HTTP/1.1\r\nHost: x\r\n\r\n"), Some("/"));
        assert_eq!(parse_request(b"POST / HTTP/1.0\r\n"), None);
        assert_eq!(parse_request(b"GET /"), None, "missing version");
        assert_eq!(parse_request(&[0xff, 0xfe]), None, "not utf-8");
    }

    #[test]
    fn header_format() {
        let h = response_header(200, 10240);
        assert!(h.starts_with("HTTP/1.0 200 OK\r\n"));
        assert!(h.contains("Content-Length: 10240"));
        assert!(h.ends_with("\r\n\r\n"));
    }

    #[test]
    fn serves_requests_natively() {
        let mut cvm = veil_services::CvmBuilder::new().frames(4096).build_native().unwrap();
        let pid = cvm.spawn();
        let mut d = crate::driver::KernelDriver { cvm: &mut cvm, pid };
        let stats = HttpWorkload::lighttpd(5).run(&mut d).unwrap();
        assert_eq!(stats.ops, 5);
        assert!(stats.bytes >= 5 * 10 * 1024, "served the body each time");
    }

    #[test]
    fn missing_file_is_404_not_error() {
        let mut cvm = veil_services::CvmBuilder::new().frames(2048).build_native().unwrap();
        let pid = cvm.spawn();
        let mut sys = cvm.sys(pid);
        let s = sys.socket().unwrap();
        sys.bind(s, 9001).unwrap();
        sys.listen(s).unwrap();
        let c = sys.socket().unwrap();
        sys.connect(c, 9001).unwrap();
        sys.send(c, b"GET /nope HTTP/1.0\r\n\r\n").unwrap();
        let conn = sys.accept(s).unwrap();
        serve_connection(&mut sys, conn, 1000).unwrap();
        let mut buf = [0u8; 128];
        let n = sys.recv(c, &mut buf).unwrap();
        assert!(buf[..n].starts_with(b"HTTP/1.0 404"));
    }
}
