//! VCEK-style derivation chain, DICE-like boot certificates, and the
//! offline chain verifier.
//!
//! Real SEV-SNP roots attestation in the **VCEK** (Versioned Chip Endorsement
//! Key): AMD firmware derives it from a fused per-chip secret and the current
//! TCB version, and the AMD KDS publishes the matching certificate so a
//! verifier never needs the chip secret itself. The VCEK root-seed extraction
//! attack (PAPERS.md) showed why every link of that derivation must be
//! independently checkable: an attacker holding the seed can mint keys for
//! *arbitrary* (older, vulnerable) TCB versions, so a verifier that only
//! checks a signature — and not which TCB the key claims — accepts reports
//! from downgraded firmware.
//!
//! This module reproduces that structure over the crate's own primitives:
//!
//! ```text
//! chip_seed ──HKDF(salt=TCB)──▶ VCEK ──HKDF(info=measurement)──▶ AK
//!    │                           │                                │
//!    └── never leaves device     └── cert: KCV(VCEK)              └── cert: KCV(AK)
//!                                     (DICE layer 1)                   (DICE layer 2)
//! ```
//!
//! * **Derivation** is RFC 5869 HKDF-SHA-256 ([`veil_crypto::hkdf`]): the
//!   chip seed and TCB version give the TCB-versioned VCEK; the VCEK and the
//!   launch measurement give the per-VM attestation key (AK). Both stages are
//!   deterministic in their inputs, so the whole chain is golden-pinnable.
//! * **Certificates** are DICE-style key-check values: each derivation stage
//!   commits to its derived key with `KCV(k) = SHA-256("veil-kcv-v1" ‖ k)`.
//!   A verifier that obtained the VCEK out of band (the KDS model) re-derives
//!   both keys and can name the *first* stage whose commitment disagrees —
//!   which is what distinguishes "wrong seed" from "skipped HKDF stage".
//! * **Reports** ([`ChainReport`]) carry the claimed TCB, measurement, VMPL,
//!   a freshness nonce, 64 bytes of requester data, both stage certificates,
//!   and an HMAC-SHA-256 signature under the AK. [`ChainReport::to_bytes`]
//!   is a stable wire format, byte-for-byte reproducible across runs.
//! * **Verification** ([`ChainVerifier`]) checks, in order: wire shape, TCB
//!   policy (unknown / stale), both derivation certificates, the signature,
//!   the measurement, the VMPL, and nonce freshness — returning a distinct
//!   [`VerifyError`] for each tamper point so tests can assert *why* a
//!   hostile report was rejected, not merely that it was.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use crate::perms::Vmpl;
use veil_crypto::{hkdf, HmacSha256, Sha256};

/// Domain-separation label for the chip-seed → VCEK HKDF stage.
const VCEK_INFO: &[u8] = b"veil-vcek-v1";
/// Domain-separation label for the VCEK → attestation-key HKDF stage.
const AK_INFO: &[u8] = b"veil-attestation-key-v1";
/// Domain-separation label for key-check-value certificates.
const KCV_TAG: &[u8] = b"veil-kcv-v1";
/// Domain-separation label for report signatures.
const REPORT_TAG: &[u8] = b"veil-chain-report-v2";
/// Wire-format magic for serialized [`ChainReport`]s.
const REPORT_MAGIC: &[u8; 8] = b"VEILRPT2";

/// Serialized size of a [`ChainReport`] in bytes.
pub const REPORT_LEN: usize = 8 + 4 + 1 + 32 + 32 + 64 + 32 + 32 + 32;

/// A TCB (Trusted Computing Base) version number. Monotonically increasing;
/// the verifier refuses anything below its policy minimum, which is the
/// defence the VCEK-seed attack paper shows is load-bearing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TcbVersion(pub u32);

impl fmt::Display for TcbVersion {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tcb{}", self.0)
    }
}

/// Which HKDF stage of the chain a certificate mismatch was detected at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeriveStage {
    /// The chip-seed → VCEK extraction (DICE layer 1).
    Vcek,
    /// The VCEK → attestation-key expansion (DICE layer 2).
    AttestationKey,
}

impl fmt::Display for DeriveStage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeriveStage::Vcek => write!(f, "vcek"),
            DeriveStage::AttestationKey => write!(f, "attestation-key"),
        }
    }
}

/// Why the verifier rejected a [`ChainReport`]. One variant per tamper
/// point, so the hostile-derivation battery can assert exact causes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VerifyError {
    /// The byte string is not a well-formed report.
    Malformed,
    /// The claimed TCB version has no certificate known to the verifier.
    UnknownTcb(TcbVersion),
    /// The claimed TCB version is below the verifier's policy minimum
    /// (a rollback / downgrade attempt).
    StaleTcb {
        /// TCB version the report claims.
        claimed: TcbVersion,
        /// Minimum TCB version the verifier accepts.
        minimum: TcbVersion,
    },
    /// A derivation-stage certificate does not match the re-derived key:
    /// the issuer used the wrong seed or skipped an HKDF stage.
    DerivationMismatch {
        /// First chain stage whose key-check value disagreed.
        stage: DeriveStage,
    },
    /// The report signature does not verify under the re-derived
    /// attestation key.
    BadSignature,
    /// The launch measurement differs from the verifier's expected image.
    WrongMeasurement,
    /// The report was requested by software other than VMPL-0 VeilMon.
    WrongVmpl(Vmpl),
    /// The nonce does not match the challenge the verifier issued.
    NonceMismatch,
    /// The nonce was already consumed by an earlier report (replay).
    Replayed,
    /// The report is genuine but does not bind the DH public value the
    /// channel handshake presented (a relay swapped keys). Checked after
    /// every chain check, by the channel bootstrap only.
    BadBinding,
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerifyError::Malformed => write!(f, "malformed report bytes"),
            VerifyError::UnknownTcb(t) => write!(f, "unknown TCB version {t}"),
            VerifyError::StaleTcb { claimed, minimum } => {
                write!(f, "stale TCB version {claimed} (policy minimum {minimum})")
            }
            VerifyError::DerivationMismatch { stage } => {
                write!(f, "derivation certificate mismatch at stage {stage}")
            }
            VerifyError::BadSignature => write!(f, "bad report signature"),
            VerifyError::WrongMeasurement => write!(f, "launch measurement mismatch"),
            VerifyError::WrongVmpl(v) => write!(f, "report requested from {v:?}, not VMPL-0"),
            VerifyError::NonceMismatch => write!(f, "nonce does not match challenge"),
            VerifyError::Replayed => write!(f, "nonce already consumed (replay)"),
            VerifyError::BadBinding => write!(f, "DH public value not bound in report"),
        }
    }
}

impl std::error::Error for VerifyError {}

// ---- derivation --------------------------------------------------------

/// Derives the fused per-chip seed from the device key seed — the one
/// derivation the "silicon" performs at manufacture. Shared by the machine
/// model and the offline `verify` CLI so the simulation has a single
/// definition of the root of trust.
pub fn chip_seed(device_key_seed: &[u8; 32]) -> [u8; 32] {
    HmacSha256::mac(device_key_seed, b"veil-chip-seed")
}

/// Derives the TCB-versioned VCEK from the per-chip seed:
/// `HKDF(salt = TCB, ikm = chip_seed, info = "veil-vcek-v1")`.
pub fn derive_vcek(chip_seed: &[u8; 32], tcb: TcbVersion) -> [u8; 32] {
    hkdf::derive(&tcb.0.to_le_bytes(), chip_seed, VCEK_INFO)
}

/// Derives the launch-measurement-bound attestation key from the VCEK:
/// `HKDF(salt = measurement, ikm = VCEK, info = "veil-attestation-key-v1")`.
pub fn derive_attestation_key(vcek: &[u8; 32], measurement: &[u8; 32]) -> [u8; 32] {
    hkdf::derive(measurement, vcek, AK_INFO)
}

/// DICE-style key-check value: a public commitment to a derived key that
/// reveals nothing about the key itself.
pub fn kcv(key: &[u8; 32]) -> [u8; 32] {
    let mut h = Sha256::new();
    h.update(KCV_TAG);
    h.update(key);
    h.finalize()
}

/// Tamper knobs for hostile issuance. Test batteries and the adversary
/// fuzzer use these to seed exactly one broken link per scenario; the
/// verifier must name the matching [`VerifyError`] every time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tamper {
    /// Derive the whole chain from another chip's seed: an attacker mints
    /// keys from material that is not this device's. A forger holding
    /// *this* chip's extracted seed is outside the trust model: the chain
    /// is a pure function of the seed, so its reports verify.
    WrongSeed,
    /// Derive and claim a TCB version below the verifier's policy minimum
    /// (firmware-downgrade attack enabled by seed extraction).
    StaleTcb(TcbVersion),
    /// Skip the VCEK HKDF stage: derive the attestation key directly from
    /// the chip seed, as a shortcut forger would.
    SkipVcekStage,
    /// Flip one bit of the signature after issuance.
    FlipSignature,
    /// Flip one bit of the reported measurement after issuance (signature
    /// still valid — checks cert/signature ordering in the verifier).
    MutateMeasurement,
    /// Claim the report came from a different VMPL.
    ClaimVmpl(Vmpl),
}

/// The tamper battery: one row per [`Tamper`] point, with its
/// `verify tamper-suite` name and the exact error a verifier whose
/// minimum TCB is 1 must name it with. Row order is fixed: the adversary
/// fuzzer's `ForgeReport { tamper }` op runs row `tamper % 6`, so
/// reordering would move fuzz coverage and its pinned results.
pub const TAMPER_SUITE: [(&str, Tamper, VerifyError); 6] = [
    ("wrong-seed", Tamper::WrongSeed, VerifyError::DerivationMismatch { stage: DeriveStage::Vcek }),
    (
        "stale-tcb",
        Tamper::StaleTcb(TcbVersion(0)),
        VerifyError::StaleTcb { claimed: TcbVersion(0), minimum: TcbVersion(1) },
    ),
    (
        "skip-hkdf-stage",
        Tamper::SkipVcekStage,
        VerifyError::DerivationMismatch { stage: DeriveStage::AttestationKey },
    ),
    ("flip-signature", Tamper::FlipSignature, VerifyError::BadSignature),
    ("mutate-measurement", Tamper::MutateMeasurement, VerifyError::WrongMeasurement),
    ("claim-vmpl3", Tamper::ClaimVmpl(Vmpl::Vmpl3), VerifyError::WrongVmpl(Vmpl::Vmpl3)),
];

// ---- the report --------------------------------------------------------

/// A chain attestation report: claims + DICE certificates + signature.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChainReport {
    /// TCB version the VCEK was derived for.
    pub tcb: TcbVersion,
    /// VMPL of the software that requested the report.
    pub vmpl: Vmpl,
    /// Launch measurement of the boot image.
    pub measurement: [u8; 32],
    /// Verifier-issued freshness challenge.
    pub nonce: [u8; 32],
    /// Requester-chosen data (e.g. DH public key for channel binding).
    pub report_data: [u8; 64],
    /// DICE layer-1 certificate: key-check value of the VCEK.
    pub vcek_cert: [u8; 32],
    /// DICE layer-2 certificate: key-check value of the attestation key.
    pub ak_cert: [u8; 32],
    /// HMAC-SHA-256 over all of the above under the attestation key.
    pub signature: [u8; 32],
}

impl ChainReport {
    /// Issues a report the honest firmware way: full two-stage derivation,
    /// certificates over the real keys, signature under the real AK.
    pub fn issue(
        chip_seed: &[u8; 32],
        tcb: TcbVersion,
        measurement: [u8; 32],
        vmpl: Vmpl,
        nonce: [u8; 32],
        report_data: [u8; 64],
    ) -> Self {
        let vcek = derive_vcek(chip_seed, tcb);
        let ak = derive_attestation_key(&vcek, &measurement);
        let mut report = ChainReport {
            tcb,
            vmpl,
            measurement,
            nonce,
            report_data,
            vcek_cert: kcv(&vcek),
            ak_cert: kcv(&ak),
            signature: [0; 32],
        };
        report.signature = report.compute_tag(&ak);
        report
    }

    /// Issues a report with exactly one link broken — the hostile issuer.
    /// Every output must be rejected by [`ChainVerifier::verify`] with the
    /// error that names `tamper`'s broken link.
    pub fn issue_tampered(
        tamper: Tamper,
        chip_seed: &[u8; 32],
        tcb: TcbVersion,
        measurement: [u8; 32],
        nonce: [u8; 32],
        report_data: [u8; 64],
    ) -> Self {
        match tamper {
            Tamper::WrongSeed => {
                let mut bad_seed = *chip_seed;
                bad_seed[0] ^= 0xff;
                Self::issue(&bad_seed, tcb, measurement, Vmpl::Vmpl0, nonce, report_data)
            }
            Tamper::StaleTcb(old) => {
                Self::issue(chip_seed, old, measurement, Vmpl::Vmpl0, nonce, report_data)
            }
            Tamper::SkipVcekStage => {
                // AK straight from the seed; the layer-1 cert still commits
                // to a properly derived VCEK so the mismatch surfaces at
                // layer 2, naming the skipped stage.
                let vcek = derive_vcek(chip_seed, tcb);
                let ak = derive_attestation_key(chip_seed, &measurement);
                let mut report = ChainReport {
                    tcb,
                    vmpl: Vmpl::Vmpl0,
                    measurement,
                    nonce,
                    report_data,
                    vcek_cert: kcv(&vcek),
                    ak_cert: kcv(&ak),
                    signature: [0; 32],
                };
                report.signature = report.compute_tag(&ak);
                report
            }
            Tamper::FlipSignature => {
                let mut report =
                    Self::issue(chip_seed, tcb, measurement, Vmpl::Vmpl0, nonce, report_data);
                report.signature[0] ^= 1;
                report
            }
            Tamper::MutateMeasurement => {
                let mut mutated = measurement;
                mutated[0] ^= 1;
                Self::issue(chip_seed, tcb, mutated, Vmpl::Vmpl0, nonce, report_data)
            }
            Tamper::ClaimVmpl(vmpl) => {
                Self::issue(chip_seed, tcb, measurement, vmpl, nonce, report_data)
            }
        }
    }

    fn compute_tag(&self, ak: &[u8; 32]) -> [u8; 32] {
        let mut mac = HmacSha256::new(ak);
        mac.update(REPORT_TAG);
        mac.update(&self.tcb.0.to_le_bytes());
        mac.update(&[self.vmpl as u8]);
        mac.update(&self.measurement);
        mac.update(&self.nonce);
        mac.update(&self.report_data);
        mac.update(&self.vcek_cert);
        mac.update(&self.ak_cert);
        mac.finalize()
    }

    /// Serializes to the stable wire format (exactly [`REPORT_LEN`] bytes).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(REPORT_LEN);
        out.extend_from_slice(REPORT_MAGIC);
        out.extend_from_slice(&self.tcb.0.to_le_bytes());
        out.push(self.vmpl as u8);
        out.extend_from_slice(&self.measurement);
        out.extend_from_slice(&self.nonce);
        out.extend_from_slice(&self.report_data);
        out.extend_from_slice(&self.vcek_cert);
        out.extend_from_slice(&self.ak_cert);
        out.extend_from_slice(&self.signature);
        debug_assert_eq!(out.len(), REPORT_LEN);
        out
    }

    /// Parses the wire format. Returns [`VerifyError::Malformed`] on any
    /// shape violation (length, magic, VMPL byte).
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, VerifyError> {
        if bytes.len() != REPORT_LEN || &bytes[..8] != REPORT_MAGIC {
            return Err(VerifyError::Malformed);
        }
        let take32 = |off: usize| -> [u8; 32] { bytes[off..off + 32].try_into().unwrap() };
        let tcb = TcbVersion(u32::from_le_bytes(bytes[8..12].try_into().unwrap()));
        let vmpl = match bytes[12] {
            0 => Vmpl::Vmpl0,
            1 => Vmpl::Vmpl1,
            2 => Vmpl::Vmpl2,
            3 => Vmpl::Vmpl3,
            _ => return Err(VerifyError::Malformed),
        };
        let mut report_data = [0u8; 64];
        report_data.copy_from_slice(&bytes[77..141]);
        Ok(ChainReport {
            tcb,
            vmpl,
            measurement: take32(13),
            nonce: take32(45),
            report_data,
            vcek_cert: take32(141),
            ak_cert: take32(173),
            signature: take32(205),
        })
    }
}

// ---- the verifier ------------------------------------------------------

/// Offline verifier for [`ChainReport`]s.
///
/// Models the remote-user side of the KDS trust structure: the verifier
/// holds one VCEK per trusted TCB version, obtained out of band — never the
/// chip seed — plus the expected launch measurement and a TCB policy floor.
/// It remembers consumed nonces, so replaying a previously accepted report
/// is rejected with [`VerifyError::Replayed`].
#[derive(Debug, Clone)]
pub struct ChainVerifier {
    /// Out-of-band VCEK per trusted TCB version (the KDS certificate set).
    vceks: BTreeMap<TcbVersion, [u8; 32]>,
    /// Reports claiming a TCB below this are stale (rollback policy).
    min_tcb: TcbVersion,
    /// Launch measurement of the one image this verifier trusts.
    expected_measurement: [u8; 32],
    /// Nonces already consumed by accepted reports.
    seen_nonces: BTreeSet<[u8; 32]>,
}

impl ChainVerifier {
    /// Creates a verifier trusting `expected_measurement`, with no TCB
    /// certificates yet (add them with [`ChainVerifier::trust_tcb`]).
    pub fn new(expected_measurement: [u8; 32], min_tcb: TcbVersion) -> Self {
        ChainVerifier {
            vceks: BTreeMap::new(),
            min_tcb,
            expected_measurement,
            seen_nonces: BTreeSet::new(),
        }
    }

    /// Installs the out-of-band VCEK for `tcb` (models fetching the KDS
    /// certificate for that TCB version).
    pub fn trust_tcb(&mut self, tcb: TcbVersion, vcek: [u8; 32]) {
        self.vceks.insert(tcb, vcek);
    }

    /// Convenience used by tests and the CLI: plays the KDS role itself,
    /// deriving the VCEK for every TCB in `min_tcb..=max_tcb` from the chip
    /// seed. A production verifier would never hold the seed; the
    /// simulation's KDS and verifier just live in the same process.
    pub fn with_kds(
        chip_seed: &[u8; 32],
        min_tcb: TcbVersion,
        max_tcb: TcbVersion,
        expected_measurement: [u8; 32],
    ) -> Self {
        let mut v = Self::new(expected_measurement, min_tcb);
        for t in min_tcb.0..=max_tcb.0 {
            v.trust_tcb(TcbVersion(t), derive_vcek(chip_seed, TcbVersion(t)));
        }
        v
    }

    /// Verifies every link of the chain and consumes the nonce. Check
    /// order is fixed — TCB policy, derivation certificates, signature,
    /// measurement, VMPL, freshness — so each tamper point maps to one
    /// stable error.
    pub fn verify(
        &mut self,
        report: &ChainReport,
        challenge: &[u8; 32],
    ) -> Result<(), VerifyError> {
        // TCB policy first: a stale claim must be named as such even when
        // (especially when) its derivation is internally consistent.
        if report.tcb < self.min_tcb {
            return Err(VerifyError::StaleTcb { claimed: report.tcb, minimum: self.min_tcb });
        }
        let vcek = *self.vceks.get(&report.tcb).ok_or(VerifyError::UnknownTcb(report.tcb))?;

        // DICE chain: re-derive from the out-of-band VCEK and compare the
        // per-stage commitments. First disagreeing stage names the tamper.
        if !veil_crypto::ct::eq(&kcv(&vcek), &report.vcek_cert) {
            return Err(VerifyError::DerivationMismatch { stage: DeriveStage::Vcek });
        }
        let ak = derive_attestation_key(&vcek, &report.measurement);
        if !veil_crypto::ct::eq(&kcv(&ak), &report.ak_cert) {
            return Err(VerifyError::DerivationMismatch { stage: DeriveStage::AttestationKey });
        }

        if !veil_crypto::ct::eq(&report.compute_tag(&ak), &report.signature) {
            return Err(VerifyError::BadSignature);
        }
        if !veil_crypto::ct::eq(&report.measurement, &self.expected_measurement) {
            return Err(VerifyError::WrongMeasurement);
        }
        if report.vmpl != Vmpl::Vmpl0 {
            return Err(VerifyError::WrongVmpl(report.vmpl));
        }
        if !veil_crypto::ct::eq(&report.nonce, challenge) {
            return Err(VerifyError::NonceMismatch);
        }
        if !self.seen_nonces.insert(report.nonce) {
            return Err(VerifyError::Replayed);
        }
        Ok(())
    }

    /// Verifies serialized report bytes (parse + [`ChainVerifier::verify`]).
    pub fn verify_bytes(&mut self, bytes: &[u8], challenge: &[u8; 32]) -> Result<(), VerifyError> {
        let report = ChainReport::from_bytes(bytes)?;
        self.verify(&report, challenge)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SEED: [u8; 32] = [0x11; 32];
    const MEAS: [u8; 32] = [0x22; 32];
    const TCB: TcbVersion = TcbVersion(3);

    fn verifier() -> ChainVerifier {
        ChainVerifier::with_kds(&SEED, TcbVersion(2), TcbVersion(4), MEAS)
    }

    fn issue(nonce: [u8; 32]) -> ChainReport {
        ChainReport::issue(&SEED, TCB, MEAS, Vmpl::Vmpl0, nonce, [0x33; 64])
    }

    #[test]
    fn honest_report_round_trips() {
        let mut v = verifier();
        let r = issue([1; 32]);
        assert_eq!(v.verify(&r, &[1; 32]), Ok(()));
        let parsed = ChainReport::from_bytes(&r.to_bytes()).unwrap();
        assert_eq!(parsed, r);
    }

    #[test]
    fn replay_is_rejected_second_time() {
        let mut v = verifier();
        let r = issue([2; 32]);
        assert_eq!(v.verify(&r, &[2; 32]), Ok(()));
        assert_eq!(v.verify(&r, &[2; 32]), Err(VerifyError::Replayed));
    }

    #[test]
    fn every_tamper_has_a_distinct_error() {
        let nonce = [4; 32];
        let cases: [(Tamper, VerifyError); 6] = [
            (Tamper::WrongSeed, VerifyError::DerivationMismatch { stage: DeriveStage::Vcek }),
            (
                Tamper::StaleTcb(TcbVersion(1)),
                VerifyError::StaleTcb { claimed: TcbVersion(1), minimum: TcbVersion(2) },
            ),
            (
                Tamper::SkipVcekStage,
                VerifyError::DerivationMismatch { stage: DeriveStage::AttestationKey },
            ),
            (Tamper::FlipSignature, VerifyError::BadSignature),
            (Tamper::MutateMeasurement, VerifyError::WrongMeasurement),
            (Tamper::ClaimVmpl(Vmpl::Vmpl3), VerifyError::WrongVmpl(Vmpl::Vmpl3)),
        ];
        for (tamper, want) in cases {
            let mut v = verifier();
            let r = ChainReport::issue_tampered(tamper, &SEED, TCB, MEAS, nonce, [0x33; 64]);
            assert_eq!(v.verify(&r, &nonce), Err(want), "tamper {tamper:?}");
        }
    }

    #[test]
    fn unknown_tcb_is_distinct_from_stale() {
        let mut v = verifier();
        let r = ChainReport::issue(&SEED, TcbVersion(9), MEAS, Vmpl::Vmpl0, [5; 32], [0; 64]);
        assert_eq!(v.verify(&r, &[5; 32]), Err(VerifyError::UnknownTcb(TcbVersion(9))));
    }

    #[test]
    fn malformed_bytes_rejected() {
        let mut v = verifier();
        assert_eq!(v.verify_bytes(b"short", &[0; 32]), Err(VerifyError::Malformed));
        let mut bytes = issue([6; 32]).to_bytes();
        bytes[0] ^= 1; // break the magic
        assert_eq!(v.verify_bytes(&bytes, &[6; 32]), Err(VerifyError::Malformed));
        bytes[0] ^= 1;
        bytes[12] = 7; // invalid VMPL byte
        assert_eq!(v.verify_bytes(&bytes, &[6; 32]), Err(VerifyError::Malformed));
    }
}
