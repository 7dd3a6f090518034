//! Key material, the per-party [`Authenticator`] signing service, and the
//! shared public-key [`Registry`] (the PKI assumed by the paper's model).
//!
//! Two interchangeable schemes are supported:
//!
//! * [`Scheme::Schnorr`] — real Schnorr signatures over secp256k1.
//!   Exercised by this crate's own tests and the benchmark's crypto layer
//!   only.
//! * [`Scheme::Keyed`] — a keyed-hash stand-in (`sig = H(sk ‖ m)`) whose
//!   verification reads the signer's secret from the registry. This is only
//!   sound inside a closed simulation where the registry is trusted, which
//!   is exactly our setting; it makes simulating 150-node tribes tractable,
//!   and every simulation, test and example outside this crate uses it.
//!   The discrete-event host model separately charges realistic CPU time for
//!   BLS-grade operations (see `clanbft-simnet`), so using the fast scheme
//!   does not distort measured latencies.

use crate::digest::{Digest, Hasher};
use crate::prng::ClanRng;
use crate::scalar::Scalar;
use crate::schnorr::{self, Signature};
use std::sync::Arc;

/// Which signature scheme a registry (and all its authenticators) uses.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Scheme {
    /// Real Schnorr over secp256k1.
    Schnorr,
    /// Keyed-hash simulation signatures (registry-verified).
    Keyed,
}

/// A 32-byte secret key (Schnorr scalar bytes, or raw keyed-hash key).
#[derive(Clone, Copy)]
pub struct SecretKey(pub [u8; 32]);

impl std::fmt::Debug for SecretKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SecretKey(..)")
    }
}

/// A 64-byte public key (uncompressed Schnorr point, or `H(sk) ‖ 0` for the
/// keyed scheme — the keyed public key is only an identifier).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct PublicKey(pub [u8; 64]);

/// A party's keypair.
#[derive(Clone, Debug)]
pub struct Keypair {
    /// The public half.
    pub public: PublicKey,
    secret: SecretKey,
    scheme: Scheme,
}

impl Keypair {
    /// Generates a keypair from 32 seed bytes.
    pub fn from_seed(scheme: Scheme, seed: [u8; 32]) -> Keypair {
        match scheme {
            Scheme::Schnorr => {
                let mut sk = Scalar::from_be_bytes_reduce(&seed);
                if sk.is_zero() {
                    sk = Scalar::ONE;
                }
                let public = PublicKey(schnorr::public_key(&sk));
                Keypair {
                    public,
                    secret: SecretKey(sk.to_be_bytes()),
                    scheme,
                }
            }
            Scheme::Keyed => {
                let id = Hasher::new("clanbft/keyed-pk").chain(&seed).finalize();
                let mut pk = [0u8; 64];
                pk[..32].copy_from_slice(id.as_bytes());
                Keypair {
                    public: PublicKey(pk),
                    secret: SecretKey(seed),
                    scheme,
                }
            }
        }
    }

    /// Signs a message under this keypair's scheme.
    pub fn sign(&self, msg: &[u8]) -> Signature {
        let _prof = clanbft_profiler::scope("crypto.sign");
        match self.scheme {
            Scheme::Schnorr => {
                let sk = Scalar::from_be_bytes_reduce(&self.secret.0);
                schnorr::sign(&sk, &self.public.0, msg)
            }
            Scheme::Keyed => keyed_sign(&self.secret, msg),
        }
    }
}

fn keyed_sign(secret: &SecretKey, msg: &[u8]) -> Signature {
    let a = Hasher::new("clanbft/keyed-sig-a")
        .chain(&secret.0)
        .chain(msg)
        .finalize();
    let b = Hasher::new("clanbft/keyed-sig-b")
        .chain(&secret.0)
        .chain(msg)
        .finalize();
    let mut out = [0u8; 64];
    out[..32].copy_from_slice(a.as_bytes());
    out[32..].copy_from_slice(b.as_bytes());
    Signature(out)
}

/// The shared PKI: every party's public key, indexed by party index.
///
/// In [`Scheme::Keyed`] mode the registry also holds the secret keys so it
/// can recompute keyed signatures during verification (simulation-only).
#[derive(Debug)]
pub struct Registry {
    scheme: Scheme,
    publics: Vec<PublicKey>,
    keyed_secrets: Vec<SecretKey>,
}

impl Registry {
    /// Generates `n` keypairs deterministically from `seed` and assembles the
    /// registry. Returns the registry plus each party's keypair.
    pub fn generate(scheme: Scheme, n: usize, seed: u64) -> (Arc<Registry>, Vec<Keypair>) {
        let mut keypairs = Vec::with_capacity(n);
        for i in 0..n {
            let d = Hasher::new("clanbft/keygen")
                .chain_u64(seed)
                .chain_u64(i as u64)
                .finalize();
            keypairs.push(Keypair::from_seed(scheme, d.0));
        }
        let registry = Registry {
            scheme,
            publics: keypairs.iter().map(|k| k.public).collect(),
            keyed_secrets: match scheme {
                Scheme::Keyed => keypairs.iter().map(|k| k.secret).collect(),
                Scheme::Schnorr => Vec::new(),
            },
        };
        (Arc::new(registry), keypairs)
    }

    /// Generates keypairs with OS randomness (non-deterministic runs).
    pub fn generate_random(scheme: Scheme, n: usize) -> (Arc<Registry>, Vec<Keypair>) {
        Self::generate(scheme, n, ClanRng::from_os_entropy().next_u64())
    }

    /// Number of registered parties.
    pub fn len(&self) -> usize {
        self.publics.len()
    }

    /// True iff the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.publics.is_empty()
    }

    /// The scheme all parties use.
    pub fn scheme(&self) -> Scheme {
        self.scheme
    }

    /// Public key of party `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn public(&self, idx: usize) -> &PublicKey {
        &self.publics[idx]
    }

    /// Verifies `sig` over `msg` as coming from party `signer`.
    pub fn verify(&self, signer: usize, msg: &[u8], sig: &Signature) -> bool {
        let _prof = clanbft_profiler::scope("crypto.verify");
        if signer >= self.publics.len() {
            return false;
        }
        match self.scheme {
            Scheme::Schnorr => schnorr::verify(&self.publics[signer].0, msg, sig),
            Scheme::Keyed => self.expected(signer, msg) == Some(*sig),
        }
    }

    /// Party `signer`'s signature over `msg`, recomputed (what an aggregate
    /// is checked against); `None` under [`Scheme::Schnorr`] or out of range.
    pub fn expected(&self, signer: usize, msg: &[u8]) -> Option<Signature> {
        self.keyed_secrets.get(signer).map(|sk| keyed_sign(sk, msg))
    }
}

/// A party-local signing service: the keypair bound to a party index plus a
/// handle to the shared registry for verification.
#[derive(Clone, Debug)]
pub struct Authenticator {
    /// This party's index in the registry.
    pub index: usize,
    keypair: Keypair,
    registry: Arc<Registry>,
}

impl Authenticator {
    /// Binds `keypair` (party `index`) to the shared `registry`.
    pub fn new(index: usize, keypair: Keypair, registry: Arc<Registry>) -> Authenticator {
        Authenticator {
            index,
            keypair,
            registry,
        }
    }

    /// Signs a digest.
    pub fn sign_digest(&self, msg: &Digest) -> Signature {
        self.keypair.sign(msg.as_bytes())
    }

    /// Signs raw bytes.
    pub fn sign(&self, msg: &[u8]) -> Signature {
        self.keypair.sign(msg)
    }

    /// Verifies a digest signature from `signer`.
    pub fn verify_digest(&self, signer: usize, msg: &Digest, sig: &Signature) -> bool {
        self.registry.verify(signer, msg.as_bytes(), sig)
    }

    /// Verifies a raw-byte signature from `signer`.
    pub fn verify(&self, signer: usize, msg: &[u8], sig: &Signature) -> bool {
        self.registry.verify(signer, msg, sig)
    }

    /// The shared registry.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup(scheme: Scheme, n: usize) -> (Arc<Registry>, Vec<Authenticator>) {
        let (registry, keypairs) = Registry::generate(scheme, n, 42);
        let auths = keypairs
            .into_iter()
            .enumerate()
            .map(|(i, kp)| Authenticator::new(i, kp, Arc::clone(&registry)))
            .collect();
        (registry, auths)
    }

    #[test]
    fn keyed_sign_verify() {
        let (reg, auths) = setup(Scheme::Keyed, 4);
        let sig = auths[2].sign(b"block payload");
        assert!(reg.verify(2, b"block payload", &sig));
        assert!(!reg.verify(1, b"block payload", &sig));
        assert!(!reg.verify(2, b"other payload", &sig));
        assert_eq!(reg.expected(2, b"block payload"), Some(sig));
        assert_eq!(reg.expected(4, b"block payload"), None);
    }

    #[test]
    fn schnorr_sign_verify() {
        let (reg, auths) = setup(Scheme::Schnorr, 3);
        let d = Digest::of(b"vertex");
        let sig = auths[0].sign_digest(&d);
        assert!(auths[1].verify_digest(0, &d, &sig));
        assert!(!reg.verify(2, d.as_bytes(), &sig));
        assert_eq!(reg.expected(0, d.as_bytes()), None);
    }

    #[test]
    fn out_of_range_signer_rejected() {
        let (reg, auths) = setup(Scheme::Keyed, 2);
        let sig = auths[0].sign(b"x");
        assert!(!reg.verify(99, b"x", &sig));
    }

    #[test]
    fn deterministic_generation() {
        let (r1, _) = Registry::generate(Scheme::Keyed, 5, 7);
        let (r2, _) = Registry::generate(Scheme::Keyed, 5, 7);
        let (r3, _) = Registry::generate(Scheme::Keyed, 5, 8);
        for i in 0..5 {
            assert_eq!(r1.public(i), r2.public(i));
        }
        assert_ne!(r1.public(0), r3.public(0));
    }

    /// Two OS-entropy registries must differ, while seeded generation stays
    /// byte-for-byte reproducible next to them.
    #[test]
    fn random_generation_is_random_seeded_stays_reproducible() {
        let (ra, _) = Registry::generate_random(Scheme::Keyed, 3);
        let (rb, _) = Registry::generate_random(Scheme::Keyed, 3);
        assert_ne!(
            ra.public(0).0.as_slice(),
            rb.public(0).0.as_slice(),
            "two generate_random calls produced identical keys"
        );
        let (s1, k1) = Registry::generate(Scheme::Keyed, 3, 7);
        let (s2, k2) = Registry::generate(Scheme::Keyed, 3, 7);
        for i in 0..3 {
            assert_eq!(s1.public(i).0.as_slice(), s2.public(i).0.as_slice());
            assert_eq!(k1[i].public, k2[i].public);
        }
    }

    #[test]
    fn schemes_produce_distinct_keys() {
        let (rk, _) = Registry::generate(Scheme::Keyed, 1, 7);
        let (rs, _) = Registry::generate(Scheme::Schnorr, 1, 7);
        assert_ne!(rk.public(0), rs.public(0));
    }
}
