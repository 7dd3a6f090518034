//! Reliable broadcast protocols for clanbft.
//!
//! The paper's foundational primitive is **tribe-assisted reliable
//! broadcast** (t-RBC): the designated sender's full payload reaches only an
//! honest-majority *clan*, while the whole tribe agrees on (and certifies)
//! its digest. The paper gives two constructions — three rounds,
//! signature-free (Fig. 2) and two rounds, signed (Fig. 3) — that differ in
//! one step, how an echo quorum becomes a certificate, and in one pure
//! function each (the crate-private threshold core). [`TribeRbc`] is the
//! one engine around both; [`TribeRbc::signature_free`] and
//! [`TribeRbc::signed`] pick the function.
//!
//! The engine takes the clan topology as a parameter and degenerates exactly
//! to the classic tribe-wide protocols (Bracha; Abraham et al.) when the
//! clan is the whole tribe — which is how the Sailfish baseline's standard
//! RBC is obtained. The merged vertex+block dissemination of paper §5 is
//! expressed through the [`payload::TribePayload`] trait: clan members ECHO
//! only after receiving the full `(vertex, block)` pair, everyone else
//! after the vertex alone.
//!
//! Missing views are fetched by the pull sub-protocol built into the
//! engine. A clan member that reaches the echo quorum without the payload
//! probes one clan echoer of the digest, or any clan member if it counted
//! none (§5's early download). Once it certifies, it asks the first
//! `f_c + 1` clan echoers it counted, skipping the first if it probed:
//! `f_c + 1` echoers include an honest one (paper §3's download step). A
//! party that certified through a received certificate (the signed
//! flavour's echo quorum and certification then fire in one step, probe
//! included) may have counted fewer, and then asks fewer, or nobody new;
//! only the retry chain
//! ([`EngineConfig::pull_retry`], doubling per attempt), which rotates
//! through the echoers not yet asked and then any clan member, `f_c + 1` at
//! a time, makes up the difference. A party outside the clan pulls the meta
//! view at certification from `f + 1` echoers the same way, or from any
//! `f + 1` parties if it counted no echo.

mod core;
pub mod engine;
pub mod payload;
pub mod standalone;
pub mod topology;

pub use crate::core::MAX_DIGESTS_PER_INSTANCE;
pub use engine::{
    echo_statement, parse_retry_token, retry_token, BufferStats, Carries, EngineConfig, RbcEvent,
    RbcMsg, RbcPacket, TribeRbc, MAX_PULL_ATTEMPTS, RETRY_TOKEN_FLAG, ROUND_WINDOW,
};
pub use payload::{BytesPayload, TribePayload};
pub use topology::ClanTopology;
