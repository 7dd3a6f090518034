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
//! engine; one pure function, the crate-private `plan_pull`, picks whom it
//! asks, by one rule: `f_c + 1` clan members not yet asked, counted echoers
//! first, so one of them is honest and holds the payload (paper §3's
//! download step). A clan member that reaches the echo quorum without the
//! payload starts the pull there (§5's early download), anyone else at
//! certification. Unless the view is on its way: a party that counted the
//! source's own echo, and got no view straight from it, first waits one
//! deadline, since an honest source sends its views before it echoes. A
//! source that lets that deadline pass is struck, and its views are pulled
//! at once from then on. The retry chain ([`EngineConfig::pull_retry`],
//! doubling per attempt) asks the next `f_c + 1`. A party outside the clan
//! pulls the meta view from `f + 1` of the tribe the same way.
//!
//! The view an instance delivered stays in it until garbage collection, the
//! one holder of that payload: an [`RbcEvent`] names the instance and its
//! digest only, and the caller reads [`TribeRbc::payload`] or
//! [`TribeRbc::meta_of`].

mod core;
pub mod engine;
pub mod payload;
mod pull;
pub mod standalone;
pub mod topology;

pub use crate::core::MAX_DIGESTS_PER_INSTANCE;
pub use engine::{
    echo_statement, parse_retry_token, retry_token, BufferStats, Carries, EngineConfig, RbcEvent,
    RbcMsg, RbcPacket, TribeRbc, MAX_PULL_ATTEMPTS, RETRY_TOKEN_FLAG, ROUND_WINDOW,
};
pub use payload::{BytesPayload, TribePayload};
pub use topology::ClanTopology;
