//! The remote user: attestation verification and the secure channel.
//!
//! The paper's trust bootstrap (§5.1): the remote user receives a signed
//! attestation report naming the boot-image measurement and the VMPL of
//! the requesting software. Only a report from VMPL-0 proves it is
//! talking to VeilMon. The report is a VCEK-chain [`ChainReport`] that
//! answers the user's challenge and carries VeilMon's DH public value in
//! its report data. The user checks the chain with a [`ChainVerifier`],
//! checks the binding, completes the exchange, and all further traffic
//! (log retrieval, enclave measurements, user secrets) flows over the
//! authenticated encrypted channel.

use veil_crypto::{ChaCha20, DhKeyPair, DhPublic, HmacSha256};
use veil_snp::vcek::{ChainReport, ChainVerifier, VerifyError};

/// The remote user's side of the channel handshake.
#[derive(Debug)]
pub struct RemoteUser {
    verifier: ChainVerifier,
    dh: DhKeyPair,
    challenge: [u8; 32],
}

impl RemoteUser {
    /// A user who trusts what `verifier` trusts: VCEKs obtained out of
    /// band and the golden launch measurement. `seed` gives the user's DH
    /// key pair and the challenge VeilMon's report must answer.
    pub fn new(verifier: ChainVerifier, seed: &[u8; 32]) -> Self {
        RemoteUser {
            verifier,
            dh: DhKeyPair::from_seed(seed),
            challenge: HmacSha256::mac(seed, b"veil-channel-challenge"),
        }
    }

    /// The user's DH public value (sent to VeilMon to complete the
    /// channel).
    pub fn public(&self) -> DhPublic {
        self.dh.public
    }

    /// The freshness challenge the user sends to VeilMon with the channel
    /// request.
    pub fn challenge(&self) -> [u8; 32] {
        self.challenge
    }

    /// Verifies VeilMon's handshake report and public value and derives
    /// the session. The verifier's fixed check order runs first (TCB
    /// policy, certificates, signature, measurement, VMPL-0, challenge,
    /// replay); then the report must bind `monitor_public` in the first 32
    /// bytes of its report data, so a relay cannot swap keys.
    ///
    /// # Errors
    ///
    /// The first failing check's [`VerifyError`]; a swapped public value
    /// is [`VerifyError::BadBinding`]. Any error aborts the channel.
    pub fn verify_and_derive(
        &mut self,
        report: &ChainReport,
        monitor_public: &DhPublic,
    ) -> Result<SecureChannel, VerifyError> {
        self.verifier.verify(report, &self.challenge)?;
        if report.report_data[..32] != monitor_public.0.to_be_bytes() {
            return Err(VerifyError::BadBinding);
        }
        Ok(SecureChannel::new(self.dh.agree(monitor_public).0))
    }
}

/// Errors from [`SecureChannel::open`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChannelError {
    /// Authentication tag mismatch (tampering or wrong key).
    BadTag,
    /// Message too short to contain a tag.
    Truncated,
}

impl std::fmt::Display for ChannelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ChannelError::BadTag => write!(f, "authentication tag mismatch"),
            ChannelError::Truncated => write!(f, "ciphertext truncated"),
        }
    }
}

impl std::error::Error for ChannelError {}

/// An authenticated encrypted channel (encrypt-then-MAC with ChaCha20 +
/// HMAC-SHA-256 and per-direction counters).
#[derive(Debug, Clone)]
pub struct SecureChannel {
    enc_key: [u8; 32],
    mac_key: [u8; 32],
    send_ctr: u64,
    recv_ctr: u64,
}

impl SecureChannel {
    /// Derives direction keys from the DH shared secret.
    pub fn new(shared: [u8; 32]) -> Self {
        SecureChannel {
            enc_key: HmacSha256::mac(&shared, b"veil-chan-enc"),
            mac_key: HmacSha256::mac(&shared, b"veil-chan-mac"),
            send_ctr: 0,
            recv_ctr: 0,
        }
    }

    fn nonce(ctr: u64) -> [u8; 12] {
        let mut n = [0u8; 12];
        n[..8].copy_from_slice(&ctr.to_le_bytes());
        n
    }

    /// Seals a message: `ciphertext || tag(32)`.
    pub fn seal(&mut self, plaintext: &[u8]) -> Vec<u8> {
        let nonce = Self::nonce(self.send_ctr);
        let mut ct = plaintext.to_vec();
        ChaCha20::new(&self.enc_key).apply_keystream(&nonce, 1, &mut ct);
        let mut mac = HmacSha256::new(&self.mac_key);
        mac.update(&nonce);
        mac.update(&ct);
        ct.extend_from_slice(&mac.finalize());
        self.send_ctr += 1;
        ct
    }

    /// Opens a sealed message.
    ///
    /// # Errors
    ///
    /// [`ChannelError`] on truncation or tag mismatch; the receive
    /// counter only advances on success (replays fail).
    pub fn open(&mut self, sealed: &[u8]) -> Result<Vec<u8>, ChannelError> {
        if sealed.len() < 32 {
            return Err(ChannelError::Truncated);
        }
        let (ct, tag) = sealed.split_at(sealed.len() - 32);
        let nonce = Self::nonce(self.recv_ctr);
        let mut mac = HmacSha256::new(&self.mac_key);
        mac.update(&nonce);
        mac.update(ct);
        if !veil_crypto::ct::eq(&mac.finalize(), tag) {
            return Err(ChannelError::BadTag);
        }
        let mut pt = ct.to_vec();
        ChaCha20::new(&self.enc_key).apply_keystream(&nonce, 1, &mut pt);
        self.recv_ctr += 1;
        Ok(pt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use veil_snp::perms::Vmpl;
    use veil_snp::vcek::TcbVersion;

    const CHIP_SEED: [u8; 32] = [0xd0; 32];
    const TCB: TcbVersion = TcbVersion(2);
    const GOLDEN: [u8; 32] = [7; 32];

    #[test]
    fn happy_path_channel() {
        let monitor_dh = DhKeyPair::from_seed(&[1; 32]);
        let mut user =
            RemoteUser::new(ChainVerifier::with_kds(&CHIP_SEED, TCB, TCB, GOLDEN), &[2; 32]);
        // What the firmware issues for VeilMon: its DH value bound, the
        // user's challenge answered.
        let mut data = [0u8; 64];
        data[..32].copy_from_slice(&monitor_dh.public.0.to_be_bytes());
        let report =
            ChainReport::issue(&CHIP_SEED, TCB, GOLDEN, Vmpl::Vmpl0, user.challenge(), data);
        let mut user_chan = user.verify_and_derive(&report, &monitor_dh.public).unwrap();
        // Monitor side derives the mirror channel.
        let mut mon_chan = SecureChannel::new(monitor_dh.agree(&user.public()).0);
        let sealed = mon_chan.seal(b"audit log batch #1");
        assert_eq!(user_chan.open(&sealed).unwrap(), b"audit log batch #1");
    }

    #[test]
    fn channel_detects_tampering_and_replay() {
        let mut a = SecureChannel::new([3; 32]);
        let mut b = SecureChannel::new([3; 32]);
        let mut sealed = a.seal(b"records");
        // Tamper.
        sealed[0] ^= 1;
        assert_eq!(b.open(&sealed), Err(ChannelError::BadTag));
        sealed[0] ^= 1;
        assert_eq!(b.open(&sealed).unwrap(), b"records");
        // Replay of the same sealed message fails (counter advanced).
        assert_eq!(b.open(&sealed), Err(ChannelError::BadTag));
        // Truncated.
        assert_eq!(b.open(&sealed[..10]), Err(ChannelError::Truncated));
    }

    #[test]
    fn channel_is_confidential() {
        let mut a = SecureChannel::new([3; 32]);
        let sealed = a.seal(b"top secret log line");
        // Ciphertext must not contain the plaintext.
        assert!(!sealed.windows(10).any(|w| w == b"top secret"));
    }
}
