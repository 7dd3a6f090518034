//! Reliable broadcast protocols for clanbft.
//!
//! The paper's foundational primitive is **tribe-assisted reliable
//! broadcast** (t-RBC): the designated sender's full payload reaches only an
//! honest-majority *clan*, while the whole tribe agrees on (and certifies)
//! its digest. Two constructions are given:
//!
//! * [`tribe3::TribeRbc3`] — three rounds (VAL → ECHO → READY),
//!   signature-free, after Bracha (paper Fig. 2);
//! * [`tribe2::TribeRbc2`] — two rounds (VAL → ECHO → echo-certificate),
//!   signed, after Abraham et al. (paper Fig. 3).
//!
//! Both engines take the clan topology as a parameter, and both degenerate
//! exactly to their classic tribe-wide ancestors when the clan is the whole
//! tribe — which is how the Sailfish baseline's standard RBC is obtained.
//! The merged vertex+block dissemination of paper §5 is expressed through
//! the [`payload::TribePayload`] trait: clan members ECHO only after
//! receiving the full `(vertex, block)` pair, everyone else after the
//! vertex alone.
//!
//! Missing payloads are fetched by the pull sub-protocol built into both
//! engines: a clan member that certifies a digest it lacks requests the
//! payload from `f_c + 1` clan members that claimed it via ECHO, which
//! guarantees an honest responder (paper §3's download step, started as
//! early as the echo quorum per §5's optimization).

pub mod engine;
pub mod payload;
pub mod standalone;
pub mod topology;
pub mod tribe2;
pub mod tribe3;

pub use engine::{
    echo_statement, parse_retry_token, retry_token, BufferStats, Dest, Effects, EngineConfig,
    RbcEvent, RbcMsg, RbcPacket, MAX_DIGESTS_PER_INSTANCE, MAX_PULL_ATTEMPTS, RETRY_TOKEN_FLAG,
};
pub use payload::{BytesPayload, TribePayload};
pub use topology::ClanTopology;
pub use tribe2::TribeRbc2;
pub use tribe3::TribeRbc3;
