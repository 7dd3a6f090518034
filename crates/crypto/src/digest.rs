//! The 32-byte [`Digest`] type and a small domain-separated [`Hasher`].

use crate::sha256::Sha256;
use std::fmt;

/// A 32-byte SHA-256 digest.
///
/// This is the universal content identifier in the workspace: block digests,
/// vertex ids, message digests for ECHO/READY exchanges, and signature
/// challenges are all `Digest`s.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Digest(pub [u8; 32]);

impl Digest {
    /// The all-zero digest, used as a placeholder for "no payload".
    pub const ZERO: Digest = Digest([0u8; 32]);

    /// Hashes `data` in one shot.
    pub fn of(data: &[u8]) -> Digest {
        Digest(crate::sha256::sha256(data))
    }

    /// Returns the raw bytes.
    pub fn as_bytes(&self) -> &[u8; 32] {
        &self.0
    }

    /// Lower-case hex encoding of the full digest.
    pub fn to_hex(&self) -> String {
        self.0.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// First 8 bytes as a `u64`, useful for seeding and cheap fingerprints.
    pub fn prefix_u64(&self) -> u64 {
        u64::from_be_bytes(self.0[..8].try_into().expect("slice is 8 bytes"))
    }
}

impl fmt::Debug for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Digest({}..)", &self.to_hex()[..12])
    }
}

impl fmt::Display for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", &self.to_hex()[..12])
    }
}

impl AsRef<[u8]> for Digest {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

/// An incremental hasher with domain separation.
///
/// Domains keep digests for different purposes (block contents, vertex
/// headers, signature challenges, ...) from colliding even if their byte
/// encodings happen to coincide.
///
/// # Examples
///
/// ```
/// use clanbft_crypto::Hasher;
///
/// let d1 = Hasher::new("block").chain(b"payload").finalize();
/// let d2 = Hasher::new("vertex").chain(b"payload").finalize();
/// assert_ne!(d1, d2);
/// ```
pub struct Hasher {
    inner: Sha256,
}

impl Hasher {
    /// Starts a hasher in the given `domain`.
    pub fn new(domain: &str) -> Hasher {
        let mut inner = Sha256::new();
        inner.update(&(domain.len() as u32).to_be_bytes());
        inner.update(domain.as_bytes());
        Hasher { inner }
    }

    /// Absorbs `data` (length-prefixed so adjacent fields cannot run together).
    pub fn update(&mut self, data: &[u8]) {
        self.inner.update(&(data.len() as u64).to_be_bytes());
        self.inner.update(data);
    }

    /// Absorbs a `u64` field.
    pub fn update_u64(&mut self, v: u64) {
        self.inner.update(&v.to_be_bytes());
    }

    /// Builder-style [`Hasher::update`].
    pub fn chain(mut self, data: &[u8]) -> Hasher {
        self.update(data);
        self
    }

    /// Builder-style [`Hasher::update_u64`].
    pub fn chain_u64(mut self, v: u64) -> Hasher {
        self.update_u64(v);
        self
    }

    /// Produces the digest.
    pub fn finalize(self) -> Digest {
        Digest(self.inner.finalize())
    }

    /// The raw hash state after everything absorbed so far, for callers
    /// that cache a shared prefix ([`crate::prng::ClanRng`]).
    pub(crate) fn into_sha256(self) -> Sha256 {
        self.inner
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_of_matches_sha256() {
        assert_eq!(
            Digest::of(b"abc").to_hex(),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[test]
    fn domain_separation() {
        let a = Hasher::new("a").chain(b"x").finalize();
        let b = Hasher::new("b").chain(b"x").finalize();
        assert_ne!(a, b);
    }

    #[test]
    fn field_boundaries_matter() {
        // ("ab", "c") must not collide with ("a", "bc").
        let h1 = Hasher::new("t").chain(b"ab").chain(b"c").finalize();
        let h2 = Hasher::new("t").chain(b"a").chain(b"bc").finalize();
        assert_ne!(h1, h2);
    }

    #[test]
    fn prefix_u64_is_big_endian_prefix() {
        let d = Digest([
            0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
            0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
        ]);
        assert_eq!(d.prefix_u64(), 0x0102030405060708);
    }

    #[test]
    fn display_is_short_hex() {
        let d = Digest::of(b"abc");
        assert_eq!(format!("{d}"), "ba7816bf8f01");
    }
}
