//! Cryptographic primitives for the Veil framework.
//!
//! The Veil paper relies on SEV-SNP firmware and guest-side cryptography for
//! launch measurement, remote attestation, secure user channels, sealed
//! enclave paging, and kernel-module signatures. This crate implements every
//! primitive those code paths need, from scratch and dependency-free:
//!
//! * [`sha256`] — FIPS 180-4 SHA-256 (launch digests, enclave measurements,
//!   trace and metrics digests, and inside [`hmac`] module signatures). It
//!   is tuned for host speed in safe Rust, with no SHA-NI path since the
//!   crate forbids `unsafe`, and every digest equals that of the plain
//!   implementation the workspace's `sha256_matches_reference` property
//!   keeps as its reference.
//! * [`hmac`] — RFC 2104 HMAC-SHA-256 (report signatures, page integrity).
//! * [`hkdf`] — RFC 5869 HKDF-SHA-256 (VCEK-style attestation key chain).
//! * [`chacha20`] — RFC 8439 ChaCha20 (sealed enclave page encryption).
//! * [`aes`] — FIPS 197 AES-128 plus CTR mode (MbedTLS-style self tests).
//! * [`dh`] — finite-field Diffie–Hellman over a 256-bit prime (secure
//!   channel bootstrap after attestation).
//! * [`drbg`] — a ChaCha20-based deterministic random bit generator.
//! * [`ct`] — constant-time comparison helpers.
//!
//! # Security note
//!
//! These implementations are written for the Veil *simulation*: they are
//! functionally correct (validated against published test vectors) but make
//! no claims about side-channel resistance of the host they run on. The DH
//! group in [`dh`] uses simulation-grade parameters.
//!
//! # Example
//!
//! ```
//! use veil_crypto::sha256::Sha256;
//!
//! let digest = Sha256::digest(b"veil");
//! assert_eq!(digest.len(), 32);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aes;
pub mod chacha20;
pub mod ct;
pub mod dh;
pub mod drbg;
pub mod hkdf;
pub mod hmac;
pub mod sha256;

pub use aes::Aes128;
pub use chacha20::ChaCha20;
pub use dh::{DhKeyPair, DhPublic, DhSharedSecret};
pub use drbg::Drbg;
pub use hmac::HmacSha256;
pub use sha256::Sha256;
