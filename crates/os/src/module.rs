//! Signed loadable kernel modules.
//!
//! VeilS-KCI's hardest requirement (§6.1) is supporting *legitimate*
//! runtime changes to kernel text: signed modules. A module here is a
//! realistic little artifact — text bytes, a relocation table referencing
//! kernel symbols, and a vendor signature — serialized to a byte image the
//! kernel stages in guest frames so the monitor side must fetch and parse
//! it from untrusted memory (TOCTOU-safely: the monitor copies first, then
//! verifies, then installs; §6.1).

use crate::error::{OsError, Refusal};
use veil_crypto::HmacSha256;

/// One relocation: patch the 8 bytes at `offset` with the address of
/// `symbol` plus `addend`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reloc {
    /// Byte offset within the module text.
    pub offset: u32,
    /// Kernel symbol the site refers to.
    pub symbol: String,
    /// Constant added to the symbol address.
    pub addend: u64,
}

/// A kernel module image (pre-installation form).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModuleImage {
    /// Module name.
    pub name: String,
    /// Raw text (code) bytes.
    pub text: Vec<u8>,
    /// Relocations to apply at load time.
    pub relocs: Vec<Reloc>,
    /// Vendor signature over name+text+relocs.
    pub signature: [u8; 32],
}

impl ModuleImage {
    /// Builds and signs a deterministic test module of `text_len` bytes.
    pub fn build_signed(name: &str, text_len: usize, vendor_key: &[u8; 32]) -> ModuleImage {
        let text: Vec<u8> = (0..text_len)
            .map(|i| ((i as u64 * 167 + name.len() as u64 * 13) % 256) as u8)
            .collect();
        // Sprinkle relocations to printk/kmalloc-style symbols.
        let relocs: Vec<Reloc> = (0..(text_len / 512).max(1))
            .map(|i| Reloc {
                offset: (i * 512) as u32,
                symbol: if i % 2 == 0 { "printk".into() } else { "kmalloc".into() },
                addend: i as u64,
            })
            .collect();
        let mut m = ModuleImage { name: name.to_string(), text, relocs, signature: [0; 32] };
        m.signature = m.compute_signature(vendor_key);
        m
    }

    /// Hands the signed layout to `put` part by part: the name, the text
    /// and the relocation table, each prefixed by its little-endian `u32`
    /// length or count. [`Self::compute_signature`] hashes the parts where
    /// they lie and [`Self::serialize`] concatenates them, so this is the
    /// one definition of the layout both share.
    fn signed_parts(&self, mut put: impl FnMut(&[u8])) {
        put(&(self.name.len() as u32).to_le_bytes());
        put(self.name.as_bytes());
        put(&(self.text.len() as u32).to_le_bytes());
        put(&self.text);
        put(&(self.relocs.len() as u32).to_le_bytes());
        for r in &self.relocs {
            put(&r.offset.to_le_bytes());
            put(&(r.symbol.len() as u32).to_le_bytes());
            put(r.symbol.as_bytes());
            put(&r.addend.to_le_bytes());
        }
    }

    /// Computes the vendor signature (HMAC model of module signing).
    pub fn compute_signature(&self, vendor_key: &[u8; 32]) -> [u8; 32] {
        let mut mac = HmacSha256::new(vendor_key);
        mac.update(b"veil-module-v1");
        self.signed_parts(|part| mac.update(part));
        mac.finalize()
    }

    /// Verifies the signature.
    #[must_use]
    pub fn verify(&self, vendor_key: &[u8; 32]) -> bool {
        veil_crypto::ct::eq(&self.compute_signature(vendor_key), &self.signature)
    }

    /// Serializes to the staging byte image (what the kernel copies into
    /// guest frames for the monitor to fetch).
    pub fn serialize(&self) -> Vec<u8> {
        let mut len = self.signature.len();
        self.signed_parts(|part| len += part.len());
        let mut out = Vec::with_capacity(len);
        self.signed_parts(|part| out.extend_from_slice(part));
        out.extend_from_slice(&self.signature);
        out
    }

    /// Parses a staged byte image.
    ///
    /// # Errors
    ///
    /// [`Refusal::MalformedModule`] on malformed input (the monitor treats
    /// any parse failure as a rejected module).
    pub fn deserialize(bytes: &[u8]) -> Result<ModuleImage, OsError> {
        let bad = Refusal::MalformedModule;
        let mut pos = 0usize;
        let take = |pos: &mut usize, n: usize| -> Result<&[u8], OsError> {
            if *pos + n > bytes.len() {
                return Err(bad.into());
            }
            let s = &bytes[*pos..*pos + n];
            *pos += n;
            Ok(s)
        };
        let read_u32 = |pos: &mut usize| -> Result<u32, OsError> {
            Ok(u32::from_le_bytes(take(pos, 4)?.try_into().expect("4 bytes")))
        };
        let name_len = read_u32(&mut pos)? as usize;
        if name_len > 256 {
            return Err(bad.into());
        }
        let name = String::from_utf8(take(&mut pos, name_len)?.to_vec()).map_err(|_| bad)?;
        let text_len = read_u32(&mut pos)? as usize;
        if text_len > 1 << 24 {
            return Err(bad.into());
        }
        let text = take(&mut pos, text_len)?.to_vec();
        let n_relocs = read_u32(&mut pos)? as usize;
        if n_relocs > 1 << 16 {
            return Err(bad.into());
        }
        let mut relocs = Vec::with_capacity(n_relocs);
        for _ in 0..n_relocs {
            let offset = read_u32(&mut pos)?;
            let sym_len = read_u32(&mut pos)? as usize;
            if sym_len > 256 {
                return Err(bad.into());
            }
            let symbol = String::from_utf8(take(&mut pos, sym_len)?.to_vec()).map_err(|_| bad)?;
            let addend = u64::from_le_bytes(take(&mut pos, 8)?.try_into().expect("8 bytes"));
            relocs.push(Reloc { offset, symbol, addend });
        }
        let signature: [u8; 32] = take(&mut pos, 32)?.try_into().map_err(|_| bad)?;
        if pos != bytes.len() {
            return Err(bad.into());
        }
        Ok(ModuleImage { name, text, relocs, signature })
    }

    /// Applies relocations in place using `resolve(symbol) -> address`.
    ///
    /// # Errors
    ///
    /// [`Refusal::UnknownSymbol`] on an unknown symbol,
    /// [`Refusal::MalformedModule`] on an out-of-bounds patch site.
    pub fn relocate(
        text: &mut [u8],
        relocs: &[Reloc],
        resolve: &dyn Fn(&str) -> Option<u64>,
    ) -> Result<(), OsError> {
        for r in relocs {
            let addr = resolve(&r.symbol).ok_or(Refusal::UnknownSymbol)?;
            let site = r.offset as usize;
            if site + 8 > text.len() {
                return Err(Refusal::MalformedModule.into());
            }
            text[site..site + 8].copy_from_slice(&(addr.wrapping_add(r.addend)).to_le_bytes());
        }
        Ok(())
    }
}

/// A module after installation.
#[derive(Debug, Clone)]
pub struct LoadedModule {
    /// Module name.
    pub name: String,
    /// Frames holding the (write-protected, under KCI) text.
    pub text_gfns: Vec<u64>,
    /// Installed size in bytes.
    pub size: usize,
    /// Whether VeilS-KCI protected it.
    pub kci_protected: bool,
}

#[cfg(test)]
mod tests {
    use super::*;
    use veil_crypto::sha256::{hex, Sha256};

    const KEY: [u8; 32] = [0x11; 32];

    #[test]
    fn sign_and_verify() {
        let m = ModuleImage::build_signed("vio_net", 4096, &KEY);
        assert!(m.verify(&KEY));
        assert!(!m.verify(&[0x22; 32]));
    }

    /// Every signed field is covered: the name, the text, and each
    /// relocation's offset, symbol and addend (a kernel that could change
    /// one of those undetected could retarget the module's relocations).
    #[test]
    fn tampered_text_fails_verification() {
        let m = ModuleImage::build_signed("rootkit", 2048, &KEY);
        assert!(m.relocs.len() > 1);
        let mut tampered = vec![m.clone(), m.clone()];
        tampered[0].text[100] ^= 0xff;
        tampered[1].name.push('x');
        for i in 0..m.relocs.len() {
            let mut t = m.clone();
            t.relocs[i].offset ^= 8;
            tampered.push(t);
            let mut t = m.clone();
            t.relocs[i].symbol = "commit_creds".into();
            tampered.push(t);
            let mut t = m.clone();
            t.relocs[i].addend ^= 1;
            tampered.push(t);
        }
        for (i, t) in tampered.iter().enumerate() {
            assert!(!t.verify(&KEY), "tampered copy {i} still verifies");
        }
    }

    /// The signature and staged bytes of the paper's 4,728-byte CS1 module
    /// are pinned: a change to the signed layout, the serialization or
    /// SHA-256 moves one of them.
    #[test]
    fn signed_layout_is_pinned() {
        let m = ModuleImage::build_signed("fs_helper", 4728, &KEY);
        assert_eq!(
            hex(&m.signature),
            "51ff970bb13d578a29637e65104b1bba2b062ca357601a39351b390985ff4957"
        );
        let bytes = m.serialize();
        assert_eq!(bytes.len(), 4983);
        assert_eq!(
            hex(&Sha256::digest(&bytes)),
            "e59b53ddc6c472d11e7c71b5af371d19baf9e2a7f8b93356b61ee37d15aefd2d"
        );
    }

    #[test]
    fn serialize_roundtrip() {
        let m = ModuleImage::build_signed("fs_helper", 4728, &KEY); // paper's CS1 size
        let bytes = m.serialize();
        let parsed = ModuleImage::deserialize(&bytes).unwrap();
        assert_eq!(parsed, m);
        assert!(parsed.verify(&KEY));
    }

    #[test]
    fn deserialize_rejects_garbage() {
        assert!(ModuleImage::deserialize(&[]).is_err());
        assert!(ModuleImage::deserialize(&[1, 2, 3]).is_err());
        let m = ModuleImage::build_signed("m", 128, &KEY);
        let mut bytes = m.serialize();
        bytes.push(0); // trailing byte
        assert!(ModuleImage::deserialize(&bytes).is_err());
        let mut truncated = m.serialize();
        truncated.truncate(truncated.len() - 1);
        assert!(ModuleImage::deserialize(&truncated).is_err());
    }

    #[test]
    fn relocation_patches_sites() {
        let m = ModuleImage::build_signed("reloc_test", 1024, &KEY);
        let mut text = m.text.clone();
        let resolve = |sym: &str| match sym {
            "printk" => Some(0xffff_8000_0010u64),
            "kmalloc" => Some(0xffff_8000_0200u64),
            _ => None,
        };
        ModuleImage::relocate(&mut text, &m.relocs, &resolve).unwrap();
        let patched = u64::from_le_bytes(text[0..8].try_into().unwrap());
        assert_eq!(patched, 0xffff_8000_0010); // printk + addend 0
    }

    #[test]
    fn relocation_unknown_symbol_fails() {
        let relocs = vec![Reloc { offset: 0, symbol: "nope".into(), addend: 0 }];
        let mut text = vec![0u8; 16];
        assert!(ModuleImage::relocate(&mut text, &relocs, &|_| None).is_err());
    }

    #[test]
    fn relocation_out_of_bounds_fails() {
        let relocs = vec![Reloc { offset: 12, symbol: "printk".into(), addend: 0 }];
        let mut text = vec![0u8; 16]; // site 12..20 > 16
        assert!(ModuleImage::relocate(&mut text, &relocs, &|_| Some(1)).is_err());
    }
}
