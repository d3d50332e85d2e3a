//! `verify` — offline validation of Veil chain attestation reports.
//!
//! The remote-verifier side of DESIGN.md §15, as a tool: given report
//! bytes, re-derive the VCEK chain from out-of-band trust material and
//! check every link (TCB policy, DICE certificates, signature,
//! measurement, VMPL, freshness). Exit code 0 = accepted, 1 = rejected.
//!
//! Usage:
//!
//! * `verify report <file> [--nonce <hex32>] [--tcb-min N]` — verify a
//!   report file (raw bytes or hex). Trust material defaults to the
//!   simulation's canonical device seed and boot-image measurement.
//! * `verify self-test [--golden <path>]` — boot a CVM, request a report
//!   over the gate with the golden fixture challenge, verify the chain,
//!   and compare the bytes against the committed golden (byte-for-byte).
//! * `verify tamper-suite` — issue one hostile report per tamper point
//!   (wrong seed, stale TCB, skipped HKDF stage, flipped signature,
//!   mutated measurement, wrong VMPL, replay) and require the verifier to
//!   name the exact error for each. Any accepted forgery fails the run.

use std::process::ExitCode;

use veil_core::cvm::veil_boot_image;
use veil_core::layout::{Layout, LayoutConfig};
use veil_crypto::sha256::hex;
use veil_os::monitor::{MonRequest, MonResponse, MonitorChannel};
use veil_services::CvmBuilder;
use veil_snp::attest::measure_launch;
use veil_snp::perms::Vmpl;
use veil_snp::vcek::{self, ChainReport, ChainVerifier, TcbVersion, VerifyError};

/// Challenge the golden fixture report answers (must match
/// `tests/attest_chain.rs` and `tests/goldens/attest_report.hex`).
const GOLDEN_NONCE: [u8; 32] = [0x5a; 32];
/// Requester binding data of the golden fixture report.
const GOLDEN_REPORT_DATA: [u8; 64] = [0x6b; 64];
/// Default committed-golden location (CI runs from the repo root).
const GOLDEN_PATH: &str = "tests/goldens/attest_report.hex";

fn arg_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1)).map(String::as_str)
}

/// Decodes hex digits, ignoring ASCII whitespace. `None` on any other
/// byte or an odd digit count; never panics, whatever the input.
fn parse_hex(s: &str) -> Option<Vec<u8>> {
    let digits: Vec<u8> = s
        .bytes()
        .filter(|b| !b.is_ascii_whitespace())
        .map(|b| (b as char).to_digit(16).map(|d| d as u8))
        .collect::<Option<_>>()?;
    if !digits.len().is_multiple_of(2) {
        return None;
    }
    Some(digits.chunks(2).map(|pair| (pair[0] << 4) | pair[1]).collect())
}

fn parse_hex32(s: &str) -> Option<[u8; 32]> {
    parse_hex(s).and_then(|v| <[u8; 32]>::try_from(v).ok())
}

/// The canonical expected measurement: the launch digest of the
/// untampered Veil boot image for the default layout — no boot required.
fn canonical_measurement() -> [u8; 32] {
    let layout = Layout::compute(&LayoutConfig::default());
    measure_launch(&veil_boot_image(&layout), layout.boot_vmsa)
}

/// A verifier provisioned with the simulation's default trust material:
/// VCEKs for TCB 0..=8 derived KDS-style from the canonical device seed.
fn default_verifier(measurement: [u8; 32], min_tcb: u32) -> ChainVerifier {
    let device_key_seed = veil_snp::machine::MachineConfig::default().device_key_seed;
    let seed = vcek::chip_seed(&device_key_seed);
    ChainVerifier::with_kds(&seed, TcbVersion(min_tcb), TcbVersion(8), measurement)
}

/// `verify report <file>`: offline chain validation of serialized bytes.
fn report_mode(args: &[String]) -> ExitCode {
    let Some(path) = args.get(2).filter(|a| !a.starts_with("--")) else {
        eprintln!("usage: verify report <file> [--nonce <hex32>] [--tcb-min N]");
        return ExitCode::FAILURE;
    };
    let raw = match std::fs::read(path) {
        Ok(raw) => raw,
        Err(e) => {
            eprintln!("verify: cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    // Hex files (the golden format) decode; anything else is raw bytes.
    let bytes = std::str::from_utf8(&raw).ok().and_then(parse_hex).unwrap_or(raw);
    let nonce = match arg_value(args, "--nonce") {
        Some(s) => match parse_hex32(s) {
            Some(n) => n,
            None => {
                eprintln!("verify: --nonce must be 64 hex chars");
                return ExitCode::FAILURE;
            }
        },
        None => GOLDEN_NONCE,
    };
    let min_tcb = arg_value(args, "--tcb-min").and_then(|s| s.parse().ok()).unwrap_or(0u32);
    let mut verifier = default_verifier(canonical_measurement(), min_tcb);
    match verifier.verify_bytes(&bytes, &nonce) {
        Ok(()) => {
            let report = ChainReport::from_bytes(&bytes).expect("verified implies well-formed");
            println!("ACCEPT {} ({}, measurement {})", path, report.tcb, hex(&report.measurement));
            ExitCode::SUCCESS
        }
        Err(e) => {
            println!("REJECT {path}: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `verify self-test`: end-to-end — boot, request over the gate, verify,
/// pin against the committed golden bytes.
fn self_test_mode(args: &[String]) -> ExitCode {
    let golden_path = arg_value(args, "--golden").unwrap_or(GOLDEN_PATH);
    let mut cvm = match CvmBuilder::new().frames(2048).attest(true).build() {
        Ok(cvm) => cvm,
        Err(e) => {
            eprintln!("self-test: boot failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let resp = cvm.gate.request(
        &mut cvm.hv,
        0,
        MonRequest::AttestReport { nonce: GOLDEN_NONCE, report_data: GOLDEN_REPORT_DATA },
    );
    let bytes = match resp {
        Ok(MonResponse::Bytes(bytes)) => bytes,
        other => {
            eprintln!("self-test: gate returned {other:?}");
            return ExitCode::FAILURE;
        }
    };
    let measurement = cvm.hv.machine.launch_measurement().expect("booted");
    let mut verifier = default_verifier(measurement, 0);
    if let Err(e) = verifier.verify_bytes(&bytes, &GOLDEN_NONCE) {
        eprintln!("self-test: live report rejected: {e}");
        return ExitCode::FAILURE;
    }
    println!("live report verified ({} bytes, {})", bytes.len(), cvm.hv.machine.tcb_version());

    match std::fs::read_to_string(golden_path) {
        Ok(text) => match parse_hex(&text) {
            Some(golden) if golden == bytes => {
                println!("golden match: {golden_path}");
                ExitCode::SUCCESS
            }
            Some(_) => {
                eprintln!("self-test: report bytes differ from {golden_path}");
                eprintln!("  (VEIL_REGEN_GOLDEN=1 cargo test --test attest_chain regenerates)");
                ExitCode::FAILURE
            }
            None => {
                eprintln!("self-test: {golden_path} is not valid hex");
                ExitCode::FAILURE
            }
        },
        Err(e) => {
            eprintln!("self-test: cannot read {golden_path}: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `verify tamper-suite`: every hostile-derivation scenario must be
/// rejected with its exact error.
fn tamper_suite_mode() -> ExitCode {
    let device_key_seed = veil_snp::machine::MachineConfig::default().device_key_seed;
    let seed = vcek::chip_seed(&device_key_seed);
    let measurement = canonical_measurement();
    let tcb = TcbVersion(2);
    let nonce = GOLDEN_NONCE;

    let mut failures = 0u32;
    for (name, tamper, want) in vcek::TAMPER_SUITE {
        let mut verifier =
            ChainVerifier::with_kds(&seed, TcbVersion(1), TcbVersion(8), measurement);
        let hostile =
            ChainReport::issue_tampered(tamper, &seed, tcb, measurement, nonce, GOLDEN_REPORT_DATA);
        match verifier.verify(&hostile, &nonce) {
            Err(ref got) if *got == want => println!("REJECTED {name:<20} {got}"),
            Err(got) => {
                println!("MISLABEL {name:<20} got \"{got}\", want \"{want}\"");
                failures += 1;
            }
            Ok(()) => {
                println!("ACCEPTED {name:<20} — forgery not detected!");
                failures += 1;
            }
        }
    }

    // Replay: an honest report accepted once must be refused on re-use.
    let mut verifier = ChainVerifier::with_kds(&seed, TcbVersion(1), TcbVersion(8), measurement);
    let honest =
        ChainReport::issue(&seed, tcb, measurement, Vmpl::Vmpl0, nonce, GOLDEN_REPORT_DATA);
    match (verifier.verify(&honest, &nonce), verifier.verify(&honest, &nonce)) {
        (Ok(()), Err(VerifyError::Replayed)) => {
            println!("REJECTED {:<20} replay detected", "replay")
        }
        other => {
            println!("MISLABEL {:<20} got {other:?}", "replay");
            failures += 1;
        }
    }

    if failures == 0 {
        println!("tamper suite: 7/7 scenarios rejected with exact errors");
        ExitCode::SUCCESS
    } else {
        println!("tamper suite: {failures} scenario(s) mishandled");
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    match args.get(1).map(String::as_str) {
        Some("report") => report_mode(&args),
        Some("self-test") => self_test_mode(&args),
        Some("tamper-suite") => tamper_suite_mode(),
        _ => {
            eprintln!("usage: verify <report|self-test|tamper-suite> [options]");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::parse_hex;

    #[test]
    fn parse_hex_decodes_digits_and_skips_whitespace() {
        assert_eq!(parse_hex("0aFf\n 10\n"), Some(vec![0x0a, 0xff, 0x10]));
        assert_eq!(parse_hex(""), Some(Vec::new()));
    }

    #[test]
    fn parse_hex_refuses_non_hex_without_panicking() {
        // Multi-byte UTF-8 used to be sliced mid-character and panic.
        for input in ["€a", "a€", "ü0", "0g", "abc", "ab c", "日本"] {
            assert_eq!(parse_hex(input), None, "{input:?}");
        }
    }
}
