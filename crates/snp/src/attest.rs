//! Launch measurement.
//!
//! During CVM launch, the SEV firmware loads the boot image and hashes it
//! into a SHA-256 launch digest (§5.1). Every attestation report names that
//! digest, so a remote user who knows which image should have booted can
//! refuse a CVM launched from a tampered disk. [`measure_launch`] is the one
//! definition of the digest: [`crate::machine::Machine::launch`] records it,
//! and a verifier computes the expected value from the image alone. The
//! signed reports themselves live in [`crate::vcek`].

use crate::fault::SnpError;
use crate::mem::PAGE_SIZE;
use std::fmt;
use veil_crypto::Sha256;

/// Zero padding for boot pages shorter than a frame.
const ZERO_PAGE: [u8; PAGE_SIZE] = [0; PAGE_SIZE];

/// Incremental launch-measurement builder (models the SEV firmware's
/// launch-update digest).
#[derive(Debug, Clone, Default)]
pub struct LaunchMeasurement {
    hasher: Sha256,
    pages: u64,
}

impl LaunchMeasurement {
    /// Starts a fresh measurement.
    pub fn new() -> Self {
        LaunchMeasurement { hasher: Sha256::new(), pages: 0 }
    }

    /// Absorbs one boot-image page at its load address, zero-padded to a
    /// frame as the firmware loads it.
    pub fn add_page(&mut self, gfn: u64, contents: &[u8]) {
        self.hasher.update(&gfn.to_le_bytes());
        self.hasher.update(contents);
        self.hasher.update(&ZERO_PAGE[..PAGE_SIZE.saturating_sub(contents.len())]);
        self.pages += 1;
    }

    /// Finalizes into the 32-byte launch digest.
    pub fn finalize(self) -> [u8; 32] {
        let mut outer = Sha256::new();
        outer.update(b"veil-launch-v1");
        outer.update(&self.pages.to_le_bytes());
        outer.update(&self.hasher.finalize());
        outer.finalize()
    }
}

/// The launch digest of `image` (`(gfn, bytes)` pages in load order)
/// followed by the zeroed boot VMSA frame at `vmsa_gfn` — exactly what
/// [`crate::machine::Machine::launch`] records for the same arguments.
pub fn measure_launch(image: &[(u64, Vec<u8>)], vmsa_gfn: u64) -> [u8; 32] {
    let mut measurement = LaunchMeasurement::new();
    for (gfn, data) in image {
        measurement.add_page(*gfn, data);
    }
    measurement.add_page(vmsa_gfn, &[]);
    measurement.finalize()
}

/// Why the firmware refused a launch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LaunchError {
    /// The machine has launched already; its measurement is fixed.
    AlreadyLaunched,
    /// A boot-image page is larger than one frame.
    OversizedPage {
        /// Load address of the page.
        gfn: u64,
        /// Its length in bytes.
        len: usize,
    },
    /// A launch frame is out of range, already assigned, or cannot hold
    /// the boot VMSA.
    Snp(SnpError),
}

impl fmt::Display for LaunchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LaunchError::AlreadyLaunched => write!(f, "machine already launched"),
            LaunchError::OversizedPage { gfn, len } => {
                write!(f, "boot page at gfn {gfn:#x} is {len} bytes, larger than a frame")
            }
            LaunchError::Snp(e) => write!(f, "launch failed: {e}"),
        }
    }
}

impl std::error::Error for LaunchError {}

impl From<SnpError> for LaunchError {
    fn from(e: SnpError) -> Self {
        LaunchError::Snp(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measurement_depends_on_content_and_address() {
        let mut a = LaunchMeasurement::new();
        a.add_page(0, b"image");
        let mut b = LaunchMeasurement::new();
        b.add_page(0, b"imagf");
        let mut c = LaunchMeasurement::new();
        c.add_page(1, b"image");
        let (da, db, dc) = (a.finalize(), b.finalize(), c.finalize());
        assert_ne!(da, db, "content changes digest");
        assert_ne!(da, dc, "load address changes digest");
    }

    #[test]
    fn measurement_is_order_sensitive() {
        let mut a = LaunchMeasurement::new();
        a.add_page(0, b"one");
        a.add_page(1, b"two");
        let mut b = LaunchMeasurement::new();
        b.add_page(1, b"two");
        b.add_page(0, b"one");
        assert_ne!(a.finalize(), b.finalize());
    }

    #[test]
    fn short_pages_measure_as_zero_padded_frames() {
        let mut padded = b"mon".to_vec();
        padded.resize(PAGE_SIZE, 0);
        assert_eq!(measure_launch(&[(1, b"mon".to_vec())], 3), measure_launch(&[(1, padded)], 3));
    }

    #[test]
    fn measure_launch_covers_image_and_vmsa_placement() {
        let image = vec![(1, b"mon".to_vec()), (2, b"ser".to_vec())];
        let digest = measure_launch(&image, 3);
        assert_eq!(digest, measure_launch(&image, 3));
        let mut mutated = image.clone();
        mutated[0].1[0] ^= 1;
        assert_ne!(digest, measure_launch(&mutated, 3), "content change must change digest");
        assert_ne!(digest, measure_launch(&image, 4), "vmsa placement must change digest");
    }
}
