//! The hostile-derivation test battery for the attestation chain
//! (DESIGN.md §15): one test per tamper point asserting the *exact*
//! verification error, the same errors through the §5.1 channel
//! bootstrap, property tests over the VCEK derivation, and the
//! golden-pinned report bytes + attested-workload trace digest.
//!
//! The tamper battery is the paper's VCEK-seed threat model made
//! executable: every way an attacker can cut a corner in the
//! chip-seed → VCEK → attestation-key chain must be *named* by the
//! verifier, not just rejected — aliased errors would let distinct
//! attacks hide behind one another.

use std::path::Path;

use veil::prelude::*;
use veil_crypto::sha256::hex;
use veil_crypto::{DhKeyPair, DhPublic};
use veil_os::monitor::{MonRequest, MonResponse, MonitorChannel};
use veil_snp::machine::MachineConfig;
use veil_snp::perms::Vmpl;
use veil_snp::vcek::{
    self, ChainReport, ChainVerifier, DeriveStage, Tamper, TcbVersion, VerifyError, REPORT_LEN,
    TAMPER_SUITE,
};
use veil_testkit::golden;
use veil_testkit::prop::{bytes, check, ints, tuple2, tuple3, Strategy};
use veil_testkit::{prop_assert, prop_assert_eq};
use veil_workloads::driver::KernelDriver;
use veil_workloads::http::HttpWorkload;
use veil_workloads::Workload;

/// Challenge fixture shared with `verify self-test` and the committed
/// golden (`tests/goldens/attest_report.hex`).
const GOLDEN_NONCE: [u8; 32] = [0x5a; 32];
/// Requester binding data of the golden fixture report.
const GOLDEN_REPORT_DATA: [u8; 64] = [0x6b; 64];

fn golden_path(file: &str) -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/goldens").join(file)
}

/// Trust material every tamper test verifies against: a chip seed, a
/// trusted-TCB window `[1, 8]`, and an expected measurement.
fn fixture() -> ([u8; 32], [u8; 32], ChainVerifier) {
    let seed = vcek::chip_seed(&[0x7e; 32]);
    let measurement = [0x2c; 32];
    let verifier = ChainVerifier::with_kds(&seed, TcbVersion(1), TcbVersion(8), measurement);
    (seed, measurement, verifier)
}

fn hostile(seed: &[u8; 32], measurement: [u8; 32], tamper: Tamper) -> ChainReport {
    ChainReport::issue_tampered(
        tamper,
        seed,
        TcbVersion(2),
        measurement,
        GOLDEN_NONCE,
        GOLDEN_REPORT_DATA,
    )
}

// ---- tamper battery: one test per tamper point, exact errors ----------

/// Wrong seed: the whole chain is internally consistent but rooted in
/// another chip's seed — caught at the *first* DICE stage, the VCEK
/// certificate.
#[test]
fn wrong_seed_is_named_as_vcek_derivation_mismatch() {
    let (seed, measurement, mut verifier) = fixture();
    let report = hostile(&seed, measurement, Tamper::WrongSeed);
    assert_eq!(
        verifier.verify(&report, &GOLDEN_NONCE),
        Err(VerifyError::DerivationMismatch { stage: DeriveStage::Vcek })
    );
}

/// The trust assumption behind the wrong-seed test: the chain is a pure
/// function of the chip seed, so a forger holding *this* chip's
/// extracted seed (the software extraction of "Insecure Despite Proven
/// Updated") mints a report the verifier accepts. Only another chip's
/// seed is caught. Seed secrecy is outside the verifier's trust model,
/// and recovering from its loss is out of scope.
#[test]
fn assumes_seed_secrecy_so_this_chips_extracted_seed_is_accepted() {
    let (seed, measurement, mut verifier) = fixture();
    let forged = ChainReport::issue(
        &seed,
        TcbVersion(2),
        measurement,
        Vmpl::Vmpl0,
        GOLDEN_NONCE,
        GOLDEN_REPORT_DATA,
    );
    assert_eq!(verifier.verify(&forged, &GOLDEN_NONCE), Ok(()));
}

/// Stale TCB: a correctly derived chain for a rolled-back firmware
/// version. Policy must name it as stale (with both versions) rather
/// than letting it surface as a generic derivation failure.
#[test]
fn stale_tcb_is_named_with_claimed_and_minimum_versions() {
    let (seed, measurement, mut verifier) = fixture();
    let report = hostile(&seed, measurement, Tamper::StaleTcb(TcbVersion(0)));
    assert_eq!(
        verifier.verify(&report, &GOLDEN_NONCE),
        Err(VerifyError::StaleTcb { claimed: TcbVersion(0), minimum: TcbVersion(1) })
    );
}

/// A TCB above the trusted window is unknown, not stale: the verifier
/// holds no KDS certificate for it.
#[test]
fn unknown_tcb_is_distinguished_from_stale() {
    let (seed, measurement, mut verifier) = fixture();
    let report = ChainReport::issue(
        &seed,
        TcbVersion(9),
        measurement,
        Vmpl::Vmpl0,
        GOLDEN_NONCE,
        GOLDEN_REPORT_DATA,
    );
    assert_eq!(
        verifier.verify(&report, &GOLDEN_NONCE),
        Err(VerifyError::UnknownTcb(TcbVersion(9)))
    );
}

/// Skipped HKDF stage: the attestation key is minted straight from the
/// chip seed. The VCEK certificate still checks out (the issuer computed
/// it honestly), so the mismatch must surface at the *second* stage.
#[test]
fn skipped_hkdf_stage_is_named_as_attestation_key_mismatch() {
    let (seed, measurement, mut verifier) = fixture();
    let report = hostile(&seed, measurement, Tamper::SkipVcekStage);
    assert_eq!(
        verifier.verify(&report, &GOLDEN_NONCE),
        Err(VerifyError::DerivationMismatch { stage: DeriveStage::AttestationKey })
    );
}

/// A flipped signature bit fails MAC verification — after the chain
/// itself checked out.
#[test]
fn flipped_signature_is_named_as_bad_signature() {
    let (seed, measurement, mut verifier) = fixture();
    let report = hostile(&seed, measurement, Tamper::FlipSignature);
    assert_eq!(verifier.verify(&report, &GOLDEN_NONCE), Err(VerifyError::BadSignature));
}

/// A mutated launch measurement re-keys the attestation key, so the
/// report self-signs consistently — only the verifier's out-of-band
/// expected measurement catches it.
#[test]
fn mutated_measurement_is_named_as_wrong_measurement() {
    let (seed, measurement, mut verifier) = fixture();
    let report = hostile(&seed, measurement, Tamper::MutateMeasurement);
    assert_eq!(verifier.verify(&report, &GOLDEN_NONCE), Err(VerifyError::WrongMeasurement));
}

/// Evidence claiming to come from a lower privilege level than VMPL-0
/// must be refused even when every key checks out.
#[test]
fn lower_vmpl_claim_is_named_as_wrong_vmpl() {
    let (seed, measurement, mut verifier) = fixture();
    let report = hostile(&seed, measurement, Tamper::ClaimVmpl(Vmpl::Vmpl3));
    assert_eq!(verifier.verify(&report, &GOLDEN_NONCE), Err(VerifyError::WrongVmpl(Vmpl::Vmpl3)));
}

/// The challenge must be echoed: an otherwise honest report answering a
/// different nonce is not fresh.
#[test]
fn wrong_nonce_is_named_as_nonce_mismatch() {
    let (seed, measurement, mut verifier) = fixture();
    let report = ChainReport::issue(
        &seed,
        TcbVersion(2),
        measurement,
        Vmpl::Vmpl0,
        [0x99; 32],
        GOLDEN_REPORT_DATA,
    );
    assert_eq!(verifier.verify(&report, &GOLDEN_NONCE), Err(VerifyError::NonceMismatch));
}

/// Replay: the same honest report is accepted once and refused on
/// re-presentation.
#[test]
fn replayed_report_is_refused_on_second_presentation() {
    let (seed, measurement, mut verifier) = fixture();
    let report = ChainReport::issue(
        &seed,
        TcbVersion(2),
        measurement,
        Vmpl::Vmpl0,
        GOLDEN_NONCE,
        GOLDEN_REPORT_DATA,
    );
    assert_eq!(verifier.verify(&report, &GOLDEN_NONCE), Ok(()));
    assert_eq!(verifier.verify(&report, &GOLDEN_NONCE), Err(VerifyError::Replayed));
}

/// Truncated, padded, or wrong-magic bytes are malformed — before any
/// cryptographic checks run.
#[test]
fn malformed_bytes_are_rejected_before_any_crypto() {
    let (seed, measurement, mut verifier) = fixture();
    let report = ChainReport::issue(
        &seed,
        TcbVersion(2),
        measurement,
        Vmpl::Vmpl0,
        GOLDEN_NONCE,
        GOLDEN_REPORT_DATA,
    );
    let good = report.to_bytes();
    assert_eq!(good.len(), REPORT_LEN);
    assert_eq!(
        verifier.verify_bytes(&good[..REPORT_LEN - 1], &GOLDEN_NONCE),
        Err(VerifyError::Malformed)
    );
    let mut padded = good.clone();
    padded.push(0);
    assert_eq!(verifier.verify_bytes(&padded, &GOLDEN_NONCE), Err(VerifyError::Malformed));
    let mut bad_magic = good;
    bad_magic[0] ^= 0xff;
    assert_eq!(verifier.verify_bytes(&bad_magic, &GOLDEN_NONCE), Err(VerifyError::Malformed));
}

// ---- the channel bootstrap runs the same checks (§5.1) -----------------

/// Through `RemoteUser::verify_and_derive`, every tamper point is named
/// with exactly the error `ChainVerifier::verify` gives: the handshake adds
/// its DH binding check after the chain checks, never before them.
#[test]
fn channel_bootstrap_names_every_tamper_like_the_verifier() {
    let (seed, measurement, verifier) = fixture();
    let monitor = DhKeyPair::from_seed(&[0x4d; 32]);
    let mut bound = [0u8; 64];
    bound[..32].copy_from_slice(&monitor.public.0.to_be_bytes());
    for (_, tamper, _) in TAMPER_SUITE {
        let mut user = RemoteUser::new(verifier.clone(), &[0x75; 32]);
        let challenge = user.challenge();
        let report = ChainReport::issue_tampered(
            tamper,
            &seed,
            TcbVersion(2),
            measurement,
            challenge,
            bound,
        );
        let want = verifier.clone().verify(&report, &challenge).unwrap_err();
        assert_eq!(
            user.verify_and_derive(&report, &monitor.public).err(),
            Some(want),
            "{tamper:?}"
        );
    }
}

/// A booted CVM's VeilMon answering a fresh remote user's challenge.
fn handshake() -> (RemoteUser, ChainReport, DhPublic) {
    let mut cvm = CvmBuilder::new().frames(2048).vcpus(1).build().unwrap();
    let golden = cvm.hv.machine.launch_measurement().unwrap();
    let user = RemoteUser::new(cvm.hv.machine.kds_verifier(golden), &[0x75; 32]);
    let (report, mon_pub) = cvm.gate.monitor.begin_channel(&mut cvm.hv, user.challenge()).unwrap();
    (user, report, mon_pub)
}

/// A relay that swaps VeilMon's DH value for its own holds a genuine
/// report that binds a different key. The failed attempt still consumes
/// the challenge, so the report cannot be retried with the genuine key.
#[test]
fn channel_bootstrap_names_a_swapped_monitor_key_as_bad_binding() {
    let (mut user, report, mon_pub) = handshake();
    let relay = DhKeyPair::from_seed(&[0x66; 32]);
    assert_eq!(user.verify_and_derive(&report, &relay.public).err(), Some(VerifyError::BadBinding));
    assert_eq!(user.verify_and_derive(&report, &mon_pub).err(), Some(VerifyError::Replayed));
}

/// A handshake report that opened one channel cannot open another. (A
/// tampered boot image is named `WrongMeasurement` by the same path; see
/// `boot_time_malicious_disk_changes_measurement`.)
#[test]
fn channel_bootstrap_refuses_a_replayed_handshake_report() {
    let (mut user, report, mon_pub) = handshake();
    assert!(user.verify_and_derive(&report, &mon_pub).is_ok());
    assert_eq!(user.verify_and_derive(&report, &mon_pub).err(), Some(VerifyError::Replayed));
}

// ---- property tests over the derivation -------------------------------

fn seeds() -> Strategy<[u8; 32]> {
    bytes(32..33).map(|v| <[u8; 32]>::try_from(v).expect("32 bytes"))
}

/// The chain is a pure function of (seed, TCB, measurement): deriving
/// twice — keys or whole serialized reports — is bit-identical.
#[test]
fn derivation_is_deterministic_in_seed_tcb_and_measurement() {
    let strategy = tuple3(seeds(), ints(0u32..16), seeds());
    check("attest_derivation_deterministic", 64, &strategy, |(seed, tcb, measurement)| {
        let tcb = TcbVersion(tcb);
        let vcek = vcek::derive_vcek(&seed, tcb);
        prop_assert_eq!(vcek, vcek::derive_vcek(&seed, tcb));
        let ak = vcek::derive_attestation_key(&vcek, &measurement);
        prop_assert_eq!(ak, vcek::derive_attestation_key(&vcek, &measurement));
        let issue = || {
            ChainReport::issue(
                &seed,
                tcb,
                measurement,
                Vmpl::Vmpl0,
                GOLDEN_NONCE,
                GOLDEN_REPORT_DATA,
            )
            .to_bytes()
        };
        prop_assert_eq!(issue(), issue());
        Ok(())
    });
}

/// Distinct inputs never collide: a different seed, TCB, or measurement
/// always produces a different key at the stage that consumes it.
#[test]
fn distinct_inputs_never_collide() {
    let strategy = tuple3(
        tuple2(seeds(), seeds()),
        tuple2(ints(0u32..16), ints(0u32..16)),
        tuple2(seeds(), seeds()),
    );
    check("attest_no_collisions", 64, &strategy, |((s1, s2), (t1, t2), (m1, m2))| {
        if s1 != s2 {
            prop_assert!(
                vcek::derive_vcek(&s1, TcbVersion(t1)) != vcek::derive_vcek(&s2, TcbVersion(t1))
            );
        }
        if t1 != t2 {
            prop_assert!(
                vcek::derive_vcek(&s1, TcbVersion(t1)) != vcek::derive_vcek(&s1, TcbVersion(t2))
            );
        }
        let vcek = vcek::derive_vcek(&s1, TcbVersion(t1));
        if m1 != m2 {
            prop_assert!(
                vcek::derive_attestation_key(&vcek, &m1)
                    != vcek::derive_attestation_key(&vcek, &m2)
            );
        }
        // The two DICE stages never alias each other's output.
        prop_assert!(vcek != vcek::derive_attestation_key(&vcek, &m1));
        Ok(())
    });
}

/// verify ∘ issue round-trips for every honest input inside the trusted
/// window — through the struct path and the serialized-bytes path.
#[test]
fn verify_issue_round_trips_for_honest_inputs() {
    let strategy = tuple3(seeds(), ints(1u32..9), tuple2(seeds(), seeds()));
    check("attest_round_trip", 64, &strategy, |(seed, tcb, (measurement, nonce))| {
        let report = ChainReport::issue(
            &seed,
            TcbVersion(tcb),
            measurement,
            Vmpl::Vmpl0,
            nonce,
            GOLDEN_REPORT_DATA,
        );
        let mut verifier =
            ChainVerifier::with_kds(&seed, TcbVersion(1), TcbVersion(8), measurement);
        prop_assert_eq!(verifier.verify(&report, &nonce), Ok(()));
        let bytes = report.to_bytes();
        let decoded = ChainReport::from_bytes(&bytes).expect("round-trip decode");
        prop_assert_eq!(decoded.to_bytes(), bytes.clone());
        let mut verifier =
            ChainVerifier::with_kds(&seed, TcbVersion(1), TcbVersion(8), measurement);
        prop_assert_eq!(verifier.verify_bytes(&bytes, &nonce), Ok(()));
        Ok(())
    });
}

// ---- golden pins -------------------------------------------------------

/// The attestation report served over the gate for the golden challenge
/// is pinned byte-for-byte (`VEIL_REGEN_GOLDEN=1` regenerates after a
/// reviewed chain change). `verify self-test` checks the same file from
/// the CLI side.
#[test]
fn golden_attest_report_bytes_are_pinned() {
    let mut cvm = CvmBuilder::new().frames(2048).attest(true).build().unwrap();
    let resp = cvm
        .gate
        .request(
            &mut cvm.hv,
            0,
            MonRequest::AttestReport { nonce: GOLDEN_NONCE, report_data: GOLDEN_REPORT_DATA },
        )
        .unwrap();
    let MonResponse::Bytes(bytes) = resp else { panic!("expected report bytes, got {resp:?}") };

    // Before pinning: the live report verifies against KDS-style trust
    // material derived from the machine's device seed.
    let device_key_seed = MachineConfig::default().device_key_seed;
    let seed = vcek::chip_seed(&device_key_seed);
    let measurement = cvm.hv.machine.launch_measurement().expect("booted");
    let mut verifier = ChainVerifier::with_kds(&seed, TcbVersion(0), TcbVersion(8), measurement);
    verifier.verify_bytes(&bytes, &GOLDEN_NONCE).expect("live report must verify");

    golden::assert_matches(
        "attestation report bytes",
        &golden_path("attest_report.hex"),
        &format!("{}\n", hex(&bytes)),
    );
}

/// The attested twin of the batched-http protocol pin: with the
/// measured-boot check armed, the whole-run trace digest is (a) pinned
/// and (b) *identical* to the plain `batched_http` golden — the check
/// only compares digests and must not perturb the runtime protocol by a
/// single event.
#[test]
fn golden_attested_http_trace_digest() {
    let mut cvm = CvmBuilder::new().frames(2048).vcpus(1).batch(true).attest(true).build().unwrap();
    cvm.kernel.audit.mode = veil_os::audit::AuditMode::VeilLog;
    cvm.kernel.audit.rules = veil_os::audit::paper_ruleset();
    cvm.hv.set_trace(true);
    let pid = cvm.spawn();
    {
        let mut driver = KernelDriver { cvm: &mut cvm, pid };
        HttpWorkload::nginx(10).run(&mut driver).unwrap();
    }
    cvm.flush_gate().unwrap();
    assert_eq!(cvm.gate.deferred_errors(), 0);
    let digest = cvm.trace_digest_hex();

    golden::assert_matches(
        "attested http trace digest",
        &golden_path("attested_http.digest"),
        &format!("{digest}\n"),
    );
    if !golden::regen_requested() {
        let plain = std::fs::read_to_string(golden_path("batched_http.digest"))
            .expect("batched_http.digest golden");
        assert_eq!(
            digest,
            plain.trim(),
            "the measured-boot check perturbed the runtime trace — it must be free"
        );
    }
}
