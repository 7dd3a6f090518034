//! Reliable broadcast protocols for clanbft.
//!
//! The paper's foundational primitive is **tribe-assisted reliable
//! broadcast** (t-RBC): the designated sender's full payload reaches only an
//! honest-majority *clan*, while the whole tribe agrees on (and certifies)
//! its digest. The paper gives two constructions — three rounds,
//! signature-free (Fig. 2) and two rounds, signed (Fig. 3) — that differ in
//! one step: how an echo quorum becomes a certificate. [`TribeRbc`] is the
//! one engine for both; [`TribeRbc::signature_free`] and
//! [`TribeRbc::signed`] pick the step.
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
//! engine: a clan member that certifies a digest it lacks requests the
//! payload from `f_c + 1` clan members that claimed it via ECHO, which
//! guarantees an honest responder (paper §3's download step, started as
//! early as the echo quorum per §5's optimization); a party outside the
//! clan pulls the meta view from `f + 1` echoers the same way.

pub mod engine;
pub mod payload;
pub mod standalone;
pub mod topology;

pub use engine::{
    echo_statement, parse_retry_token, retry_token, BufferStats, Dest, Effects, EngineConfig,
    RbcEvent, RbcMsg, RbcPacket, TribeRbc, MAX_DIGESTS_PER_INSTANCE, MAX_PULL_ATTEMPTS,
    RETRY_TOKEN_FLAG, ROUND_WINDOW,
};
pub use payload::{BytesPayload, TribePayload};
pub use topology::ClanTopology;
