//! Cryptographic substrate for the clanbft workspace.
//!
//! Everything in this crate is implemented from scratch on top of the Rust
//! standard library:
//!
//! * [`sha256`] — FIPS 180-4 SHA-256, validated against published vectors.
//! * [`digest`] — the 32-byte [`Digest`] type used throughout the workspace.
//! * [`u256`] — minimal fixed-width 256-bit integer arithmetic.
//! * [`field`] / [`scalar`] / [`point`] — secp256k1 arithmetic.
//! * [`schnorr`] — Schnorr signatures over secp256k1 (classic `(e, s)` form).
//! * [`keys`] — key material, the [`Authenticator`] signing service and the
//!   shared public-key [`Registry`].
//! * [`multisig`] — a signer bitmap and one 64-byte fold, standing in for the
//!   paper's BLS multi-signatures (see `DESIGN.md`, substitution 3).
//! * [`bitmap`] — the compact signer bitmap itself.
//! * [`prng`] — a deterministic SHA-256-CTR generator ([`ClanRng`]), the
//!   workspace's only randomness source (see `DESIGN.md`, "Zero-dependency
//!   policy").
//!
//! # Security note
//!
//! The Schnorr implementation is *functionally* correct (and tested against
//! independently computed vectors) but is written for protocol simulation and
//! research: scalar multiplication is not constant-time and no side-channel
//! hardening is attempted. Do not reuse it to protect real funds.

pub mod bitmap;
pub mod digest;
pub mod field;
pub mod keys;
pub mod multisig;
pub mod point;
pub mod prng;
pub mod scalar;
pub mod schnorr;
pub mod sha256;
pub mod u256;

pub use bitmap::Bitmap;
pub use digest::{Digest, Hasher};
pub use keys::{Authenticator, Keypair, PublicKey, Registry, Scheme, SecretKey};
pub use multisig::AggregateSignature;
pub use prng::ClanRng;
pub use schnorr::Signature;
