//! A minimal seeded property-testing harness.
//!
//! The workspace's property suites used to run on `proptest`; this crate
//! replaces the subset they need with ~300 lines built on the in-tree
//! [`ClanRng`](clanbft_crypto::ClanRng), keeping the tree free of third-party code (see `DESIGN.md`,
//! "Zero-dependency policy").
//!
//! # Model
//!
//! A property is a closure `Fn(&T) -> Result<(), String>` over inputs drawn
//! by a generator closure `Fn(&mut Gen) -> T`. [`check`] runs the property
//! over `cases` inputs; [`check_shrink`] additionally shrinks a failing
//! input (integers toward zero, vectors toward empty) before reporting.
//!
//! Every case derives its generator from `(run seed, case index)`, so a
//! failure report names the exact environment variables that replay it:
//!
//! ```text
//! property 'block_codec_roundtrip' falsified at case 17/64
//!   reproduce with: TESTKIT_SEED=3405691582 TESTKIT_CASE=17 cargo test ...
//! ```
//!
//! # Environment knobs
//!
//! * `TESTKIT_SEED` — run seed (defaults to a fixed constant so CI is
//!   deterministic; set a fresh value to explore new inputs).
//! * `TESTKIT_CASES` — overrides every suite's case count.
//! * `TESTKIT_CASE` — replay exactly one case index.
//!
//! # Example
//!
//! ```
//! use clanbft_testkit::{check, tk_assert_eq};
//!
//! check("addition commutes", 32, |g| (g.u64(), g.u64()), |&(a, b)| {
//!     tk_assert_eq!(a.wrapping_add(b), b.wrapping_add(a));
//!     Ok(())
//! });
//! ```

mod gen;
mod runner;
mod shrink;

pub use gen::Gen;
pub use runner::{check, check_shrink, Config};
pub use shrink::Shrink;
