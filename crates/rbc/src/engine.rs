//! The tribe-assisted reliable-broadcast engine: messages, events, effects,
//! per-instance state (custody of the payload and meta views, per-digest
//! echo tracking, at-most-once delivery), the pull sub-protocol, and the one
//! state machine that runs both of the paper's constructions. Instances
//! live in rows of a [`RoundWindow`] whose base is the prune horizon.

use crate::core::{self, Count, Once, Spill, Step, Tally, Vote};
use crate::payload::TribePayload;
use crate::topology::ClanTopology;
use clanbft_crypto::multisig::AggregateVerdict;
use clanbft_crypto::{AggregateSignature, Authenticator, Digest, Hasher, Signature};
use clanbft_simnet::cost::CostModel;
use clanbft_simnet::protocol::{Ctx, Message};
use clanbft_telemetry::{counters, Event, RbcPhase, Telemetry};
use clanbft_types::{Evidence, Micros, PartyId, PartySet, Round, RoundWindow, TribeParams};
use std::sync::Arc;

/// Retry attempts per pull before the engine gives up and leaves liveness
/// to the consensus-level timeout path (bounds the timer chain).
pub const MAX_PULL_ATTEMPTS: u8 = 6;

/// Rounds above the local round (the engine's round hint, the consensus
/// layer's current round) that are still admitted; any message further in
/// the future is rejected (`rejected.buffer_full`), so a Byzantine peer
/// cannot make a party allocate unbounded instances or pending state.
pub const ROUND_WINDOW: u64 = 256;

/// High bit marking a timer token as an RBC pull-retry deadline. The
/// consensus layer uses plain round numbers as timer tokens, so the two
/// namespaces stay disjoint as long as rounds never reach 2^63.
pub const RETRY_TOKEN_FLAG: u64 = 1 << 63;

/// Packs `(round, source)` into a pull-retry timer token. Rounds must stay
/// below 2^43 and party indices below 2^20 — both far beyond any run.
pub fn retry_token(round: Round, source: PartyId) -> u64 {
    debug_assert!(round.0 < (1 << 43) && (source.0 as u64) < (1 << 20));
    RETRY_TOKEN_FLAG | (round.0 << 20) | source.0 as u64
}

/// Reverses [`retry_token`]; `None` for plain (consensus-round) tokens.
pub fn parse_retry_token(token: u64) -> Option<(Round, PartyId)> {
    if token & RETRY_TOKEN_FLAG == 0 {
        return None;
    }
    let body = token & !RETRY_TOKEN_FLAG;
    Some((Round(body >> 20), PartyId((body & 0xF_FFFF) as u32)))
}

/// One broadcast message, always in the context of `(source, round)`.
#[derive(Clone, Debug)]
pub enum RbcMsg<P: TribePayload> {
    /// Full payload, sent by the source to its clan.
    Val(P),
    /// Meta view, sent by the source to parties outside the clan.
    ValMeta(P::Meta),
    /// Echo of the payload digest; signed in the 2-round variant. The
    /// signature is inline: a multicast is stored once and lent to every
    /// recipient, so nothing clones it per copy, and a recipient copies it
    /// only if it keeps the share.
    Echo {
        /// Digest being echoed.
        digest: Digest,
        /// Signature over the echo statement (2-round variant only).
        sig: Option<Signature>,
    },
    /// Ready vote (3-round variant only).
    Ready {
        /// Digest being confirmed.
        digest: Digest,
    },
    /// Echo certificate `EC_r(m)` (2-round variant only), shared so that
    /// the all-to-all certificate multicast clones a pointer.
    EchoCert {
        /// Certified digest.
        digest: Digest,
        /// Aggregated echo signatures.
        cert: Arc<AggregateSignature>,
    },
    /// Request for a missing full payload.
    Pull {
        /// Digest of the wanted payload.
        digest: Digest,
    },
    /// Response carrying the full payload.
    PullResp(P),
    /// Request for a missing meta view.
    PullMeta {
        /// Digest of the wanted payload.
        digest: Digest,
    },
    /// Response carrying the meta view.
    MetaResp(P::Meta),
}

/// A routed broadcast message: the RBC instance key plus the message.
#[derive(Clone, Debug)]
pub struct RbcPacket<P: TribePayload> {
    /// The designated sender of the instance.
    pub source: PartyId,
    /// The round the instance belongs to.
    pub round: Round,
    /// The message body.
    pub msg: RbcMsg<P>,
}

/// Envelope overhead charged per packet (tag + source + round).
const PACKET_HEADER_BYTES: usize = 16;

impl<P: TribePayload> Message for RbcPacket<P> {
    fn wire_bytes(&self) -> usize {
        PACKET_HEADER_BYTES
            + match &self.msg {
                RbcMsg::Val(p) | RbcMsg::PullResp(p) => p.wire_bytes(),
                RbcMsg::ValMeta(m) | RbcMsg::MetaResp(m) => P::meta_wire_bytes(m),
                RbcMsg::Echo { sig, .. } => 32 + if sig.is_some() { 64 } else { 0 },
                RbcMsg::Ready { .. } => 32,
                // BLS-model certificate size: κ aggregate + signer bitmap.
                RbcMsg::EchoCert { cert, .. } => 32 + cert.wire_bytes(),
                RbcMsg::Pull { .. } | RbcMsg::PullMeta { .. } => 32,
            }
    }

    fn kind(&self) -> &'static str {
        match &self.msg {
            RbcMsg::Val(_) => "rbc.val",
            RbcMsg::ValMeta(_) => "rbc.meta",
            RbcMsg::Echo { .. } => "rbc.echo",
            RbcMsg::Ready { .. } => "rbc.ready",
            RbcMsg::EchoCert { .. } => "rbc.cert",
            RbcMsg::Pull { .. } => "rbc.pull",
            RbcMsg::PullResp(_) => "rbc.pull_resp",
            RbcMsg::PullMeta { .. } => "rbc.pull",
            RbcMsg::MetaResp(_) => "rbc.meta_resp",
        }
    }
}

/// Observable outcomes of the broadcast layer.
#[derive(Clone, Debug)]
pub enum RbcEvent<P: TribePayload> {
    /// The digest is certified: 2f+1 READYs (3-round) or a valid echo
    /// certificate (2-round). Consensus uses this for round progress.
    Certified {
        /// Instance source.
        source: PartyId,
        /// Instance round.
        round: Round,
        /// Certified digest.
        digest: Digest,
    },
    /// `r_deliver` of the full payload (clan members).
    DeliverFull {
        /// Instance source.
        source: PartyId,
        /// Instance round.
        round: Round,
        /// The certified digest of `payload` (its [`TribePayload::rbc_digest`],
        /// computed once on acceptance).
        digest: Digest,
        /// The payload.
        payload: P,
    },
    /// `r_deliver` of the meta view (parties outside the clan).
    DeliverMeta {
        /// Instance source.
        source: PartyId,
        /// Instance round.
        round: Round,
        /// The certified digest of `meta` (its [`TribePayload::meta_digest`],
        /// computed once on acceptance).
        digest: Digest,
        /// The meta view.
        meta: P::Meta,
    },
    /// Misbehaviour this party proved against an instance's source (once
    /// per instance; already counted and traced).
    Evidence(Evidence),
}

/// Who receives one outgoing packet. The engines only ever address one
/// party or the whole tribe, so a multicast is one entry whatever `n` is;
/// the node layer expands it (in party order, which fixes the order of the
/// simulator's per-recipient jitter draws).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Dest {
    /// A single party (loopback allowed).
    One(PartyId),
    /// Every party of the tribe, this one included (via loopback).
    All,
    /// Every party of the tribe except this one.
    Others,
}

impl Dest {
    /// Queues `msg` on `ctx` for the parties this destination names, in
    /// party order (`ctx.party()` is "this one").
    pub fn queue<M: Message>(self, tribe: TribeParams, msg: M, ctx: &mut Ctx<M>) {
        match self {
            Dest::One(to) => ctx.send(to, msg),
            Dest::All => ctx.multicast(tribe.parties(), msg),
            Dest::Others => {
                let me = ctx.party();
                ctx.multicast(tribe.parties().filter(|p| *p != me), msg)
            }
        }
    }
}

/// Collected side effects of one engine invocation.
pub struct Effects<P: TribePayload> {
    /// Packets to transmit, in emission order.
    pub out: Vec<(Dest, RbcPacket<P>)>,
    /// Events for the layer above.
    pub events: Vec<RbcEvent<P>>,
    /// Simulated CPU time consumed.
    pub charge: Micros,
    /// Simulated time when the invocation started (telemetry stamp base;
    /// see [`Effects::at`]).
    pub now: Micros,
    /// Timers to arm: `(delay, token)`. The node layer forwards these to
    /// `Ctx::set_timer`; tokens carry the [`RETRY_TOKEN_FLAG`] namespace.
    pub timers: Vec<(Micros, u64)>,
}

impl<P: TribePayload> Default for Effects<P> {
    fn default() -> Self {
        Effects {
            out: Vec::new(),
            events: Vec::new(),
            charge: Micros::ZERO,
            now: Micros::ZERO,
            timers: Vec::new(),
        }
    }
}

impl<P: TribePayload> Effects<P> {
    /// A fresh effect set whose telemetry stamps are based at `now`, the
    /// simulated time the enclosing handler started.
    pub fn at(now: Micros) -> Effects<P> {
        Effects {
            now,
            ..Effects::default()
        }
    }

    /// True iff nothing but CPU time came of the invocation: no packet, no
    /// event, no timer.
    pub fn is_inert(&self) -> bool {
        self.out.is_empty() && self.events.is_empty() && self.timers.is_empty()
    }

    /// Current simulated time as observed inside this invocation: the base
    /// plus CPU time charged so far. Mirrors `Ctx::now` semantics.
    pub fn stamp(&self) -> Micros {
        self.now + self.charge
    }

    pub(crate) fn send(&mut self, to: PartyId, source: PartyId, round: Round, msg: RbcMsg<P>) {
        self.multicast(Dest::One(to), source, round, msg);
    }

    pub(crate) fn multicast(&mut self, to: Dest, source: PartyId, round: Round, msg: RbcMsg<P>) {
        self.out.push((to, RbcPacket { source, round, msg }));
    }

    /// Adds simulated CPU time to this effect set.
    pub fn charge(&mut self, c: Micros) {
        self.charge += c;
    }
}

/// The statement an echo signature covers. Public so tests and the
/// adversary harness can craft echoes for parties they hold keys for.
pub fn echo_statement(source: PartyId, round: Round, digest: &Digest) -> Digest {
    Hasher::new("clanbft/rbc-echo")
        .chain_u64(source.0 as u64)
        .chain_u64(round.0)
        .chain(digest.as_bytes())
        .finalize()
}

/// Which view of a broadcast a party holds, serves or pulls: the full
/// payload (the source's clan) or the meta view (everyone else). §5 merges
/// vertex and block into one instance, so "pull the block" and "pull the
/// vertex" are one sub-protocol over these two views.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Which {
    Full = 0,
    Meta = 1,
}

/// One received view, as carried by VAL/ValMeta and the pull responses.
enum View<P: TribePayload> {
    Full(P),
    Meta(P::Meta),
}

impl<P: TribePayload> View<P> {
    fn which(&self) -> Which {
        match self {
            View::Full(_) => Which::Full,
            View::Meta(_) => Which::Meta,
        }
    }
}

/// Custody of one view of one instance.
struct Held<P: TribePayload> {
    /// The validated view and its digest, hashed once on acceptance
    /// (hashing a vertex repeatedly is hot).
    view: Option<(View<P>, Digest)>,
    /// Whether the view arrived straight from the source (makes a later
    /// certified-digest mismatch attributable equivocation).
    direct: bool,
    /// Peers already served a pull response for this view (rate limiting).
    served: PartySet,
}

impl<P: TribePayload> Held<P> {
    fn digest(&self) -> Option<Digest> {
        self.view.as_ref().map(|(_, d)| *d)
    }
}

/// Signed echoes awaiting certificate assembly (signed flavour). Taken by
/// the certificate and not collected afterwards: once the instance has sent
/// or accepted a certificate the shares have no reader (tallies keep
/// counting late echoes).
type Shares = Vec<(usize, Signature)>;

/// The engine's facts of an instance, one bit each in [`Votes::facts`].
/// (The core's are [`Votes::once`]; whether a digest is certified is
/// [`Row::certified`].)
mod fact {
    /// Some packet for the instance was admitted: the slot is in use.
    pub const TOUCHED: u8 = 1 << 0;
    /// This party has `r_deliver`ed.
    pub const DELIVERED: u8 = 1 << 1;
}

/// The hot state of one broadcast instance: all an echo reads and writes.
/// One fixed-size record, stored inline in its round's row.
struct Votes {
    /// Echoes for the first digest seen — the only one unless the source
    /// equivocates (further digests spill into [`Cold::spill`]).
    echoes: Tally,
    /// The certified digest, once the source is in [`Row::certified`].
    certified: Digest,
    /// [`fact`] bits.
    facts: u8,
    /// The core's once-facts.
    once: Once,
}

/// 136 bytes whatever the tribe size — 144 with the pointer to the cold
/// part, two cache lines and a quarter: 24 of them are the empty handle of
/// the voter set's heap part, which only a tribe beyond
/// [`PartySet::INLINE`] fills.
const _: () = assert!(std::mem::size_of::<Votes>() == 136);

/// What an echo after the first, or a duplicate certificate, never reads:
/// custody of the views, pull state, signature shares, the tallies of an
/// equivocating source. Created on first need.
struct Cold<P: TribePayload> {
    /// The two views, indexed by [`Which`]. A full payload also fills the
    /// meta slot (it contains the meta view).
    held: [Held<P>; 2],
    /// Digest this party echoed (first valid VAL/meta accepted).
    echoed: Option<Digest>,
    /// Shares behind [`Votes::echoes`].
    shares: Shares,
    /// The core's other tallies: the echoes of an equivocating source, with
    /// their shares, and the readies.
    spill: Spill<Shares>,
    /// Pull escalation level: 0 = none, 1 = single-peer probe (echo
    /// quorum), 2 = full quorum fan-out (certification).
    pull_level: u8,
    /// Digest the outstanding pull is for (certified digest once known).
    pull_digest: Option<Digest>,
    /// Peers this party has directed a pull at (rotation avoids re-asking).
    asked: PartySet,
    /// Retry deadlines fired for this instance so far.
    pull_attempts: u8,
    /// Whether the retry timer chain is running.
    retry_armed: bool,
    /// Whether evidence against the source was already recorded here (one
    /// record per instance, whatever it shows).
    evidence_logged: bool,
}

impl<P: TribePayload> Cold<P> {
    /// The cold part behind `slot`, created if absent (takes the field, so
    /// the hot record stays borrowable beside it).
    fn of(slot: &mut Option<Box<Cold<P>>>) -> &mut Cold<P> {
        slot.get_or_insert_with(|| {
            let held = || Held {
                view: None,
                direct: false,
                served: PartySet::EMPTY,
            };
            Box::new(Cold {
                held: [held(), held()],
                echoed: None,
                shares: Vec::new(),
                spill: Spill::default(),
                pull_level: 0,
                pull_digest: None,
                asked: PartySet::EMPTY,
                pull_attempts: 0,
                retry_armed: false,
                evidence_logged: false,
            })
        })
    }
}

/// State of one broadcast instance at one party.
struct Instance<P: TribePayload> {
    votes: Votes,
    cold: Option<Box<Cold<P>>>,
}

impl<P: TribePayload> Instance<P> {
    fn unused() -> Instance<P> {
        Instance {
            votes: Votes {
                echoes: Tally::new(Digest::ZERO),
                certified: Digest::ZERO,
                facts: 0,
                once: Once::default(),
            },
            cold: None,
        }
    }

    fn is(&self, fact: u8) -> bool {
        self.votes.facts & fact != 0
    }

    fn cold(&mut self) -> &mut Cold<P> {
        Cold::of(&mut self.cold)
    }

    fn held(&self, which: Which) -> Option<&Held<P>> {
        self.cold.as_ref().map(|cold| &cold.held[which as usize])
    }

    fn holds(&self, which: Which) -> bool {
        self.held(which).is_some_and(|h| h.view.is_some())
    }

    /// Echo tallies in first-seen order (one unless the source equivocates).
    fn echo_tallies(&self) -> impl Iterator<Item = &Tally> {
        let spilled = self.cold.iter().flat_map(|c| &c.spill.echoes);
        std::iter::once(&self.votes.echoes)
            .filter(|first| first.total > 0)
            .chain(spilled.map(|(tally, _)| tally))
    }

    /// The echo bookkeeping for `digest`, if any echo for it was counted.
    fn echo_set(&self, digest: &Digest) -> Option<&Tally> {
        self.echo_tallies().find(|s| s.digest == *digest)
    }

    /// The shares collected behind each echo tally.
    fn shares_mut(&mut self) -> impl Iterator<Item = (Digest, &mut Shares)> {
        let first = self.votes.echoes.digest;
        self.cold.iter_mut().flat_map(move |cold| {
            let spilled = cold.spill.echoes.iter_mut().map(|(t, s)| (t.digest, s));
            std::iter::once((first, &mut cold.shares)).chain(spilled)
        })
    }
}

/// One round's instances.
struct Row<P: TribePayload> {
    /// Sources whose instance has a certified digest. The fact lives here,
    /// not in the instance's record, because it is all a duplicate
    /// certificate asks — `n − 1` of the `2n` deliveries of a signed
    /// instance — and a row's worth of it stays in cache where `n` records
    /// do not.
    certified: PartySet,
    /// Per-source instances: none while the round is untouched, then `n`.
    instances: Vec<Instance<P>>,
}

impl<P: TribePayload> Default for Row<P> {
    fn default() -> Self {
        Row {
            certified: PartySet::EMPTY,
            instances: Vec::new(),
        }
    }
}

/// Instance storage addressed by index: a [`RoundWindow`] whose base is the
/// prune horizon, each round a row of per-source instances held inline. A
/// lookup is two bounds checks. What a far-future flood can allocate stays
/// bounded by the admission window ([`TribeRbc::admit`] gates every
/// creating access), and replayed old packets cannot recreate instances.
struct Slots<P: TribePayload> {
    rows: RoundWindow<Row<P>>,
}

impl<P: TribePayload> Slots<P> {
    fn get(&self, round: Round, source: PartyId) -> Option<&Instance<P>> {
        let inst = self.rows.get(round)?.instances.get(source.idx());
        inst.filter(|inst| inst.is(fact::TOUCHED))
    }

    fn get_mut(&mut self, round: Round, source: PartyId) -> Option<&mut Instance<P>> {
        let inst = self.rows.get_mut(round)?.instances.get_mut(source.idx());
        inst.filter(|inst| inst.is(fact::TOUCHED))
    }

    /// The row of `round`, with its `n` instances in place.
    ///
    /// # Panics
    ///
    /// Panics if `round` is below the window — excluded by
    /// [`TribeRbc::admit`].
    fn touch_row(&mut self, round: Round, n: usize) -> &mut Row<P> {
        let row = self.rows.touch(round).expect("below the window");
        if row.instances.is_empty() {
            row.instances.resize_with(n, Instance::unused);
        }
        row
    }

    /// The instance for `(round, source)`, put to use if it was not.
    ///
    /// # Panics
    ///
    /// Panics if `round` is below the window or `source` is not a party of
    /// the tribe — both excluded by [`TribeRbc::admit`].
    fn touch(&mut self, round: Round, source: PartyId, n: usize) -> &mut Instance<P> {
        let inst = &mut self.touch_row(round, n).instances[source.idx()];
        inst.votes.facts |= fact::TOUCHED;
        inst
    }

    /// Whether `(round, source)` has a certified digest: reads the row's
    /// set, not the instance.
    fn is_certified(&self, round: Round, source: PartyId) -> bool {
        self.rows
            .get(round)
            .is_some_and(|row| row.certified.contains(source))
    }

    /// The certified digest of `(round, source)`, if there is one.
    fn certified(&self, round: Round, source: PartyId) -> Option<Digest> {
        let row = self
            .rows
            .get(round)
            .filter(|row| row.certified.contains(source))?;
        Some(row.instances[source.idx()].votes.certified)
    }

    /// Certifies `digest` for `(round, source)`, putting the instance to
    /// use; `false` if the instance already had a certified digest (which
    /// stands).
    fn certify(&mut self, round: Round, source: PartyId, n: usize, digest: Digest) -> bool {
        let row = self.touch_row(round, n);
        let inst = &mut row.instances[source.idx()];
        inst.votes.facts |= fact::TOUCHED;
        let fresh = row.certified.insert(source);
        if fresh {
            inst.votes.certified = digest;
        }
        fresh
    }

    fn iter(&self) -> impl Iterator<Item = &Instance<P>> {
        let instances = self.rows.iter().flat_map(|(_, row)| &row.instances);
        instances.filter(|inst| inst.is(fact::TOUCHED))
    }
}

/// Engine configuration, identical for both flavours.
#[derive(Clone)]
pub struct EngineConfig {
    /// This party.
    pub me: PartyId,
    /// Tribe and clan structure governing rounds before the first epoch
    /// entry (and every round when `epochs` is empty — the common case).
    pub topology: Arc<ClanTopology>,
    /// Epoch-rotated clan structures as `(from_round, topology)` pairs in
    /// ascending `from_round` order. The tribe (membership, `f`, quorums)
    /// is identical across entries — only the clan assignment rotates, so
    /// the tribe's thresholds and `n` stay epoch-independent.
    pub epochs: Vec<(Round, Arc<ClanTopology>)>,
    /// CPU cost model for charge accounting.
    pub cost: CostModel,
    /// Telemetry sink for RBC phase events (disabled by default).
    pub telemetry: Telemetry,
    /// Base pull-retry deadline; doubles per attempt (capped) while a
    /// needed payload/meta view is outstanding.
    pub pull_retry: Micros,
}

impl EngineConfig {
    /// Convenience constructor (telemetry disabled; set the field to opt
    /// in).
    pub fn new(me: PartyId, topology: Arc<ClanTopology>, cost: CostModel) -> EngineConfig {
        EngineConfig {
            me,
            topology,
            epochs: Vec::new(),
            cost,
            telemetry: Telemetry::null(),
            pull_retry: Micros::from_millis(500),
        }
    }

    /// The clan structure governing broadcast instances of `round`: the
    /// last epoch entry with `from_round <= round`, else the base topology.
    pub fn topology_at(&self, round: Round) -> &Arc<ClanTopology> {
        self.epochs
            .iter()
            .rev()
            .find(|(from, _)| *from <= round)
            .map(|(_, t)| t)
            .unwrap_or(&self.topology)
    }

    /// Installs a rotated clan structure effective from `from_round`
    /// onward (idempotent per boundary; keeps entries sorted).
    pub fn install_epoch(&mut self, from_round: Round, topology: Arc<ClanTopology>) {
        self.epochs.retain(|(f, _)| *f != from_round);
        self.epochs.push((from_round, topology));
        self.epochs.sort_by_key(|(f, _)| *f);
    }

    /// Tribe size.
    pub fn n(&self) -> usize {
        self.topology.tribe().n()
    }
}

/// Live occupancy of the engine's bounded buffers, sampled into gauges by
/// the node layer (the health monitor's buffer-growth input: these are the
/// numbers that tell whether a stall was a full window, an echo-digest
/// flood or a pull backlog).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BufferStats {
    /// RBC instances currently tracked inside the round window.
    pub instances: u64,
    /// Distinct echo digests tracked across all instances (>1 per
    /// instance only under equivocation).
    pub echo_digests: u64,
    /// Undelivered instances with an armed pull-retry chain.
    pub pending_pulls: u64,
}

/// How an echo quorum becomes a certificate — the one step in which the
/// paper's two t-RBC constructions differ; the rules are
/// [`core::signature_free`] and [`core::signed`].
enum Flavour {
    /// Three rounds, signature-free, after Bracha (paper Fig. 2): VAL →
    /// ECHO → READY. With the clan set to the whole tribe this is exactly
    /// Bracha's RBC.
    SignatureFree,
    /// Two rounds, signed, after Abraham et al.'s good-case-optimal RBC
    /// (paper Fig. 3): VAL → signed ECHO → echo certificate `EC_r(m)`. Per
    /// the paper's implementation (§7), echo signatures are aggregated
    /// without upfront verification; a receiver verifies the aggregate and,
    /// on failure, identifies and excludes culprits before the core judges
    /// what is left.
    Signed {
        auth: Arc<Authenticator>,
        /// When false, certificate signature bytes are not actually checked
        /// (their CPU cost is still charged). Large-scale simulations flip
        /// this off for tractability; correctness tests keep it on.
        verify_sigs: bool,
    },
}

/// The tribe-assisted reliable-broadcast engine: all instances for one
/// party, in either of the paper's two constructions.
pub struct TribeRbc<P: TribePayload> {
    cfg: EngineConfig,
    flavour: Flavour,
    slots: Slots<P>,
    /// Highest round this party knows to be legitimately active (own
    /// broadcasts, certifications, consensus round advances). The
    /// admission window extends [`ROUND_WINDOW`] beyond it.
    round_hint: Round,
}

impl<P: TribePayload> TribeRbc<P> {
    fn new(cfg: EngineConfig, flavour: Flavour) -> TribeRbc<P> {
        TribeRbc {
            cfg,
            flavour,
            slots: Slots {
                rows: RoundWindow::default(),
            },
            round_hint: Round(0),
        }
    }

    /// The 3-round signature-free engine (paper Fig. 2) for one party.
    pub fn signature_free(cfg: EngineConfig) -> TribeRbc<P> {
        TribeRbc::new(cfg, Flavour::SignatureFree)
    }

    /// The 2-round signed engine (paper Fig. 3) for one party.
    pub fn signed(cfg: EngineConfig, auth: Arc<Authenticator>) -> TribeRbc<P> {
        TribeRbc::new(
            cfg,
            Flavour::Signed {
                auth,
                verify_sigs: true,
            },
        )
    }

    /// Disables real signature verification on the signed engine
    /// (cost-model charges remain).
    pub fn with_sig_verification(mut self, on: bool) -> TribeRbc<P> {
        if let Flavour::Signed { verify_sigs, .. } = &mut self.flavour {
            *verify_sigs = on;
        }
        self
    }

    /// The engine configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.cfg
    }

    /// Installs an epoch-rotated clan structure effective from
    /// `from_round` (see [`EngineConfig::install_epoch`]). In-flight
    /// instances of earlier rounds keep their original topology.
    pub fn install_epoch(&mut self, from_round: Round, topology: Arc<ClanTopology>) {
        self.cfg.install_epoch(from_round, topology);
    }

    /// Widens the bounded-buffer admission window: `round` is known
    /// legitimately active (the consensus layer calls this when it
    /// advances into `round`).
    pub fn note_round(&mut self, round: Round) {
        if round > self.round_hint {
            self.round_hint = round;
        }
    }

    /// Live occupancy of the bounded buffers (see [`BufferStats`]).
    pub fn buffer_stats(&self) -> BufferStats {
        let mut stats = BufferStats::default();
        for inst in self.slots.iter() {
            stats.instances += 1;
            stats.echo_digests += inst.echo_tallies().count() as u64;
            let pulling = inst.cold.as_ref().is_some_and(|cold| cold.retry_armed);
            if pulling && !inst.is(fact::DELIVERED) {
                stats.pending_pulls += 1;
            }
        }
        stats
    }

    /// The meta view (vertex) held for `(round, source)`, if any, with the
    /// digest computed when it was accepted — lets the consensus layer act
    /// on certification before the full payload lands, without rehashing.
    pub fn meta_of(&self, round: Round, source: PartyId) -> Option<(P::Meta, Digest)> {
        match &self.slots.get(round, source)?.held(Which::Meta)?.view {
            Some((View::Meta(meta), digest)) => Some((meta.clone(), *digest)),
            _ => None,
        }
    }

    /// True iff this party has delivered for `(round, source)`.
    pub fn delivered(&self, round: Round, source: PartyId) -> bool {
        self.slots
            .get(round, source)
            .is_some_and(|inst| inst.is(fact::DELIVERED))
    }

    /// Drops state for instances strictly below `round` (garbage
    /// collection; the DAG layer prunes in lockstep) and raises the window's
    /// base, so replayed packets cannot resurrect pruned instances.
    pub fn prune_below(&mut self, round: Round) {
        self.slots.rows.prune_below(round);
    }

    /// `r_bcast`: disseminates `payload` as this party's broadcast for
    /// `round`. The full payload goes to the sender's clan (including the
    /// sender itself, via loopback), the meta view to everyone else.
    pub fn broadcast(&mut self, round: Round, payload: P, fx: &mut Effects<P>) {
        let _prof = clanbft_profiler::scope("rbc.broadcast");
        self.note_round(round);
        let me = self.cfg.me;
        let topo = self.cfg.topology_at(round).clone();
        let clan = topo.clan_for_sender(me);
        let meta = payload.meta();
        fx.charge(self.cfg.cost.hash(payload.wire_bytes()));
        if matches!(self.flavour, Flavour::Signed { .. }) {
            fx.charge(self.cfg.cost.sign());
        }
        self.trace(RbcPhase::ValSent, round, me, fx);
        for p in topo.tribe().parties() {
            let msg = if clan.contains(p) {
                RbcMsg::Val(payload.clone())
            } else {
                RbcMsg::ValMeta(meta.clone())
            };
            fx.send(p, me, round, msg);
        }
    }

    /// Handles one received packet. The packet stays the caller's: a view
    /// or certificate this party keeps is cloned (two `Arc`s) at that point.
    pub fn handle(&mut self, from: PartyId, packet: &RbcPacket<P>, fx: &mut Effects<P>) {
        let _prof = clanbft_profiler::scope("rbc.handle");
        let RbcPacket {
            source,
            round,
            ref msg,
        } = *packet;
        // Bounded buffering: stale (below prune horizon) and far-future
        // rounds, and sources or senders outside the tribe, are rejected
        // before any state is allocated.
        if !self.admit(from, round, source) {
            return;
        }
        match msg {
            // Only the designated sender pushes VAL/ValMeta.
            RbcMsg::Val(p) if from == source => {
                self.on_view(round, source, View::Full(p.clone()), true, fx)
            }
            RbcMsg::ValMeta(m) if from == source => {
                self.on_view(round, source, View::Meta(m.clone()), true, fx)
            }
            RbcMsg::Val(_) | RbcMsg::ValMeta(_) => {}
            RbcMsg::PullResp(p) => self.on_view(round, source, View::Full(p.clone()), false, fx),
            RbcMsg::MetaResp(m) => self.on_view(round, source, View::Meta(m.clone()), false, fx),
            RbcMsg::Pull { digest } => {
                self.serve_pull(round, source, from, Which::Full, *digest, fx)
            }
            RbcMsg::PullMeta { digest } => {
                self.serve_pull(round, source, from, Which::Meta, *digest, fx)
            }
            RbcMsg::Echo { digest, sig } => {
                let share = match (&self.flavour, sig) {
                    (Flavour::SignatureFree, _) => None,
                    // Unsigned echoes are not acceptable here.
                    (Flavour::Signed { .. }, None) => return,
                    (Flavour::Signed { .. }, Some(sig)) => {
                        // Aggregate without upfront verification (paper §7).
                        fx.charge(self.cfg.cost.aggregate(1));
                        Some(sig)
                    }
                };
                self.on_echo(round, source, from, *digest, share, fx);
            }
            // Each flavour ignores the other's certification message.
            RbcMsg::Ready { digest } => {
                if matches!(self.flavour, Flavour::SignatureFree) {
                    let (step, _) = self.vote(round, source, Vote::Ready(from, *digest));
                    self.apply(round, source, *digest, step, None, fx);
                }
            }
            RbcMsg::EchoCert { digest, cert } => {
                // Duplicate certificates for an already-certified instance
                // are dropped before any verification cost is paid (and
                // before the instance's record is touched).
                if self.slots.is_certified(round, source) {
                    return;
                }
                if let Some(step) = self.validate_cert(source, round, *digest, cert, fx) {
                    self.apply(round, source, *digest, step, Some(cert), fx);
                }
            }
        }
    }

    /// Admission gate for every incoming packet: rejects rounds below the
    /// prune horizon (stale/replayed), rounds beyond the bounded buffering
    /// window (far-future flooding), and sources and senders outside the
    /// tribe (no slot exists for the one, no vote or pull counts for the
    /// other). Counted, never silent.
    fn admit(&mut self, from: PartyId, round: Round, source: PartyId) -> bool {
        let n = self.cfg.n();
        if round < self.slots.rows.base()
            || round.0 > self.round_hint.0.saturating_add(ROUND_WINDOW)
            || source.idx() >= n
            || from.idx() >= n
        {
            self.cfg.telemetry.add(counters::REJECTED_BUFFER_FULL, 1);
            return false;
        }
        true
    }

    /// The instance for an admitted `(round, source)`, put to use if it was
    /// not.
    fn instance(&mut self, round: Round, source: PartyId) -> &mut Instance<P> {
        let n = self.cfg.n();
        self.slots.touch(round, source, n)
    }

    /// Records one RBC phase event, stamped inside this invocation.
    fn trace(&self, phase: RbcPhase, round: Round, source: PartyId, fx: &Effects<P>) {
        self.cfg.telemetry.event(
            fx.stamp(),
            self.cfg.me,
            Event::Rbc {
                phase,
                round,
                source,
            },
        );
    }

    /// Whether no evidence against `source` has been recorded in this
    /// instance yet — and notes that now one has: the per-instance dedup in
    /// front of [`TribeRbc::record_evidence`].
    fn first_evidence(&mut self, round: Round, source: PartyId) -> bool {
        let cold = self.instance(round, source).cold();
        !std::mem::replace(&mut cold.evidence_logged, true)
    }

    /// Counts, traces and hands up one evidence record (callers dedup per
    /// instance).
    fn record_evidence(&mut self, ev: Evidence, fx: &mut Effects<P>) {
        let tel = &self.cfg.telemetry;
        tel.add(counters::EVIDENCE_RECORDED, 1);
        tel.event(
            fx.stamp(),
            self.cfg.me,
            Event::EvidenceRecorded {
                kind: ev.kind(),
                round: ev.round(),
                culprit: ev.culprit(),
            },
        );
        fx.events.push(RbcEvent::Evidence(ev));
    }

    /// Records that `source` stands behind two digests in `round`, once per
    /// instance; returns whether this call recorded it.
    fn note_equivocation(
        &mut self,
        round: Round,
        source: PartyId,
        first: Digest,
        second: Digest,
        fx: &mut Effects<P>,
    ) -> bool {
        if !self.first_evidence(round, source) {
            return false;
        }
        self.cfg.telemetry.add(counters::REJECTED_EQUIVOCATION, 1);
        self.record_evidence(
            Evidence::EquivocatingSource {
                round,
                source,
                first,
                second,
            },
            fx,
        );
        true
    }

    /// The view this party is due of `source`'s broadcast in `round`.
    fn my_view(&self, round: Round, source: PartyId) -> Which {
        if self
            .cfg
            .topology_at(round)
            .receives_full(self.cfg.me, source)
        {
            Which::Full
        } else {
            Which::Meta
        }
    }

    /// A view arrived: as VAL/ValMeta straight from the source (`direct`)
    /// or as a pull response. Accept it, echo if it is the first direct
    /// one, and deliver if the instance is already certified.
    fn on_view(
        &mut self,
        round: Round,
        source: PartyId,
        view: View<P>,
        direct: bool,
        fx: &mut Effects<P>,
    ) {
        // A clan member must not echo on the meta view alone: its echo
        // asserts custody of the full payload (that is what makes f_c+1
        // clan echoes imply retrievability).
        let may_echo =
            direct && (view.which() == Which::Full || self.my_view(round, source) == Which::Meta);
        if let Some(digest) = self.accept(round, source, view, direct, fx) {
            if may_echo {
                self.maybe_echo(round, source, digest, fx);
            }
        }
        self.try_deliver(round, source, fx);
    }

    /// Takes custody of a view; returns its digest if it is fresh and
    /// valid.
    ///
    /// `direct` conflicts are attributable equivocation (evidence +
    /// counter), while pulled-copy redundancy (several responses racing
    /// in) is protocol-normal and stays silent.
    fn accept(
        &mut self,
        round: Round,
        source: PartyId,
        view: View<P>,
        direct: bool,
        fx: &mut Effects<P>,
    ) -> Option<Digest> {
        let cost = self.cfg.cost;
        let tel = self.cfg.telemetry.clone();
        let which = view.which();
        // A payload that names an instance rides in that one or not at all:
        // refused before it is hashed, held or echoed.
        let named = match &view {
            View::Full(payload) => payload.names_instance(),
            View::Meta(meta) => P::meta_names_instance(meta),
        };
        if let Some((named_round, named_source)) = named.filter(|n| *n != (round, source)) {
            tel.add(counters::REJECTED_BAD_PAYLOAD, 1);
            // Straight from the source it is the source's doing; a pull
            // response says nothing about anyone but the responder.
            if direct && self.first_evidence(round, source) {
                let ev = Evidence::MisboundPayload {
                    round,
                    source,
                    named_round,
                    named_source,
                };
                self.record_evidence(ev, fx);
            }
            return None;
        }
        let digest = match &view {
            View::Full(payload) => {
                fx.charge(cost.hash(payload.wire_bytes()));
                if !payload.validate() {
                    tel.add(counters::REJECTED_BAD_PAYLOAD, 1);
                    return None;
                }
                payload.rbc_digest()
            }
            View::Meta(meta) => P::meta_digest(meta),
        };
        let certified = self.slots.certified(round, source);
        let inst = self.instance(round, source);
        if let Some(held) = inst.held(which).and_then(Held::digest) {
            if direct && held == digest {
                tel.add(counters::REJECTED_DUPLICATE, 1);
            } else if direct && !self.note_equivocation(round, source, held, digest, fx) {
                tel.add(counters::REJECTED_EQUIVOCATION, 1);
            }
            return None;
        }
        // A view must match an already-certified digest when one exists (a
        // Byzantine responder cannot swap payloads post-certification).
        if let Some(certified) = certified.filter(|c| *c != digest) {
            // Certified A, then a direct VAL for B: the source itself
            // conflicts with its own certified broadcast.
            let attributed = direct
                && which == Which::Full
                && self.note_equivocation(round, source, certified, digest, fx);
            if !attributed && (direct || which == Which::Full) {
                tel.add(counters::REJECTED_BAD_PAYLOAD, 1);
            }
            return None;
        }
        let cold = inst.cold();
        if let View::Full(payload) = &view {
            let meta = &mut cold.held[Which::Meta as usize];
            if meta.view.is_none() {
                meta.view = Some((View::Meta(payload.meta()), digest));
                meta.direct = direct;
            }
            fx.charge(cost.db_write());
        }
        let held = &mut cold.held[which as usize];
        held.view = Some((view, digest));
        held.direct = direct;
        Some(digest)
    }

    /// Echoes `digest` once per instance (signed in the signed flavour).
    fn maybe_echo(&mut self, round: Round, source: PartyId, digest: Digest, fx: &mut Effects<P>) {
        let cold = self.instance(round, source).cold();
        if cold.echoed.is_some() {
            return;
        }
        cold.echoed = Some(digest);
        let sig = match &self.flavour {
            Flavour::SignatureFree => None,
            Flavour::Signed { auth, .. } => {
                fx.charge(self.cfg.cost.sign());
                let statement = echo_statement(source, round, &digest);
                Some(auth.sign_digest(&statement))
            }
        };
        self.trace(RbcPhase::Echoed, round, source, fx);
        fx.multicast(Dest::All, source, round, RbcMsg::Echo { digest, sig });
    }

    /// Counts one vote on `(round, source)`'s instance through the
    /// flavour's core, putting the instance to use. Always inlined, like the
    /// core's functions: the echo path is the engine's hot loop, where each
    /// call cost `handle` a few per cent (alternating in-process runs of the
    /// signed engine, n = 50).
    #[inline(always)]
    fn vote(&mut self, round: Round, source: PartyId, vote: Vote) -> (Step, &mut Instance<P>) {
        let (n, tribe) = (self.cfg.n(), self.cfg.topology.tribe());
        let clan = self.cfg.topology_at(round).clan_for_sender(source);
        let inst = self.slots.touch(round, source, n);
        let Instance { votes, cold } = &mut *inst;
        let (first, once) = (&mut votes.echoes, &mut votes.once);
        let step = match self.flavour {
            Flavour::SignatureFree => {
                core::signature_free(tribe, clan, first, once, || &mut Cold::of(cold).spill, vote)
            }
            Flavour::Signed { .. } => {
                core::signed(tribe, clan, first, once, || &mut Cold::of(cold).spill, vote)
            }
        };
        (step, inst)
    }

    /// Counts an echo through the flavour's core — one visit to the
    /// instance's record — keeps its share towards a certificate of this
    /// party's own, and applies the step.
    fn on_echo(
        &mut self,
        round: Round,
        source: PartyId,
        from: PartyId,
        digest: Digest,
        sig: Option<&Signature>,
        fx: &mut Effects<P>,
    ) {
        // A certified signed instance has sent its certificate.
        let keep_share = sig.is_some() && !self.slots.is_certified(round, source);
        let quorum = self.cfg.topology.tribe().quorum();
        let (step, inst) = self.vote(round, source, Vote::Echo(from, digest));
        let counted = matches!(step.count, Count::Counted | Count::Split);
        if let Some(sig) = sig.filter(|_| keep_share && counted) {
            let first = inst.votes.echoes.digest;
            let cold = inst.cold();
            let shares = if digest == first {
                Some(&mut cold.shares)
            } else {
                let mut spilled = cold.spill.echoes.iter_mut();
                spilled.find(|(t, _)| t.digest == digest).map(|(_, s)| s)
            };
            if let Some(shares) = shares {
                if shares.capacity() == 0 {
                    // A certificate needs `2f+1` shares and takes them all.
                    shares.reserve_exact(quorum);
                }
                shares.push((from.idx(), *sig));
            }
        }
        if step.count == Count::Split {
            // A second digest behind one instance: the source is behind two
            // payloads (or an echoer is lying about it — see Evidence docs
            // on attribution strength per variant). The "first" digest is
            // what this party echoed or accepted, else the first one echoed
            // (an earlier split has recorded the instance's one record).
            let cold = inst.cold();
            let first = cold
                .echoed
                .or(cold.held[Which::Full as usize].digest())
                .or(cold.held[Which::Meta as usize].digest())
                .unwrap_or(inst.votes.echoes.digest);
            self.note_equivocation(round, source, first, digest, fx);
        }
        // Most echoes are counted and fire nothing: no call for them.
        if step != Step::default() {
            self.apply(round, source, digest, step, None, fx);
        }
    }

    /// Verifies a received certificate's aggregate signature and hands the
    /// core what is left of its signers once culprits are pruned: how many,
    /// and how many of them from the source's clan. `None` in the
    /// signature-free flavour.
    fn validate_cert(
        &mut self,
        source: PartyId,
        round: Round,
        digest: Digest,
        cert: &AggregateSignature,
        fx: &mut Effects<P>,
    ) -> Option<Step> {
        let Flavour::Signed { auth, verify_sigs } = &self.flavour else {
            return None;
        };
        let clan = self.cfg.topology_at(round).clan_for_sender(source);
        fx.charge(self.cfg.cost.agg_verify(cert.count()));
        let statement = echo_statement(source, round, &digest);
        let verdict = verify_sigs.then(|| cert.verify(auth.registry(), statement.as_bytes()));
        let culprits = match verdict {
            Some(AggregateVerdict::Invalid(bad)) => {
                // Blame path: individual verification to identify culprits
                // (charged per paper's fallback).
                fx.charge(self.cfg.cost.sig_verify() * cert.count() as u32);
                bad
            }
            Some(AggregateVerdict::Valid) | None => Vec::new(),
        };
        let signers = cert.signers.count_matching(|i| !culprits.contains(&i));
        let in_clan = |i| !culprits.contains(&i) && clan.contains(PartyId(i as u32));
        let vote = Vote::Cert(signers, cert.signers.count_matching(in_clan));
        // An admitted first certificate puts the slot to use, valid or not.
        let (step, _) = self.vote(round, source, vote);
        // Each pruned contribution is an invalid signature from a known
        // signer index; a cert that fails thresholds without identifiable
        // culprits is simply malformed — still counted, never silent.
        let bad = culprits.len() as u64 + u64::from(!step.certify && culprits.is_empty());
        if bad > 0 {
            self.cfg.telemetry.add(counters::REJECTED_BAD_SIG, bad);
        }
        Some(step)
    }

    /// Applies what a vote did to `digest`'s instance, in the one order
    /// both figures fire in: certificate, echo quorum, READY, certify. A
    /// certificate step forwards `received`, or forms one from the shares.
    fn apply(
        &mut self,
        round: Round,
        source: PartyId,
        digest: Digest,
        step: Step,
        received: Option<&Arc<AggregateSignature>>,
        fx: &mut Effects<P>,
    ) {
        match step.count {
            Count::Duplicate => self.cfg.telemetry.add(counters::REJECTED_DUPLICATE, 1),
            Count::Capped => self.cfg.telemetry.add(counters::REJECTED_BUFFER_FULL, 1),
            Count::Counted | Count::Split => {}
        }
        if step.send_cert {
            let n = self.cfg.n();
            let mut own = Vec::new();
            for (of, shares) in self.instance(round, source).shares_mut() {
                // A certificate of this party's own takes its digest's
                // shares; all others are moot now.
                let shares = std::mem::take(shares);
                if of == digest {
                    own = shares;
                }
            }
            let cert = received.map_or_else(
                || Arc::new(AggregateSignature::aggregate(n, &own)),
                Arc::clone,
            );
            fx.multicast(
                Dest::Others,
                source,
                round,
                RbcMsg::EchoCert { digest, cert },
            );
        }
        if step.echo_quorum {
            let lacks_payload = !self.instance(round, source).holds(Which::Full);
            self.trace(RbcPhase::EchoQuorum, round, source, fx);
            if lacks_payload && self.my_view(round, source) == Which::Full {
                // Gentle first probe: one clan echoer. In the good case the
                // sender's own copy is moments away; the guaranteed-honest
                // f_c+1 fan-out waits for certification (§5's early
                // download, without amplifying every in-flight block into a
                // pull storm).
                self.start_pull(round, source, digest, 1, fx);
            }
        }
        if step.send_ready {
            fx.multicast(Dest::All, source, round, RbcMsg::Ready { digest });
        }
        if step.certify {
            self.certify(round, source, digest, fx);
        }
    }

    /// Marks the digest certified and performs delivery or starts the pull
    /// of the view this party is due.
    fn certify(&mut self, round: Round, source: PartyId, digest: Digest, fx: &mut Effects<P>) {
        let which = self.my_view(round, source);
        // Certification required a real quorum, so the round is
        // legitimately active: widen the admission window to it.
        self.note_round(round);
        let n = self.cfg.n();
        if !self.slots.certify(round, source, n, digest) {
            return;
        }
        let inst = self.instance(round, source);
        // A direct copy from the source that disagrees with the digest the
        // tribe certified is attributable equivocation.
        let conflicting = inst
            .cold
            .iter()
            .flat_map(|cold| &cold.held)
            .find_map(|h| h.digest().filter(|d| *d != digest && h.direct));
        fx.events.push(RbcEvent::Certified {
            source,
            round,
            digest,
        });
        self.trace(RbcPhase::Certified, round, source, fx);
        let delivered = self.try_deliver(round, source, fx);
        if delivered {
            let phase = match which {
                Which::Full => RbcPhase::DeliverFull,
                Which::Meta => RbcPhase::DeliverMeta,
            };
            self.trace(phase, round, source, fx);
        }
        if let Some(first) = conflicting {
            self.note_equivocation(round, source, first, digest, fx);
        }
        if !delivered {
            // View missing or (Byzantine sender) mismatched — discard a
            // mismatch and pull the certified one.
            if let Some(cold) = &mut self.instance(round, source).cold {
                cold.held[which as usize].view = None;
            }
            self.start_pull(round, source, digest, 2, fx);
        }
    }

    /// Delivers if the instance is certified and this party holds the
    /// matching view it is due (payload for clan members, meta view for
    /// everyone else); returns whether it delivered now.
    fn try_deliver(&mut self, round: Round, source: PartyId, fx: &mut Effects<P>) -> bool {
        let which = self.my_view(round, source);
        let certified = self.slots.certified(round, source);
        let inst = self.instance(round, source);
        // Field by field: the view stays borrowed while the fact is set.
        let view = inst
            .cold
            .as_ref()
            .map(|cold| &cold.held[which as usize].view);
        let (Some(certified), Some(Some((view, digest)))) = (certified, view) else {
            return false;
        };
        if inst.is(fact::DELIVERED) || *digest != certified {
            return false;
        }
        inst.votes.facts |= fact::DELIVERED;
        let digest = certified;
        fx.events.push(match view {
            View::Full(payload) => RbcEvent::DeliverFull {
                source,
                round,
                digest,
                payload: payload.clone(),
            },
            View::Meta(meta) => RbcEvent::DeliverMeta {
                source,
                round,
                digest,
                meta: meta.clone(),
            },
        });
        true
    }

    /// Who can serve the view this party is due of `(round, source)`, and
    /// how many of them to ask so that one is honest: the source's clan and
    /// `f_c+1` for the full payload, the whole tribe and `f+1` for the meta
    /// view. This party itself is never a candidate.
    fn pull_scope(&self, round: Round, source: PartyId) -> (Which, Vec<PartyId>, usize) {
        let me = self.cfg.me;
        let topo = self.cfg.topology_at(round);
        match self.my_view(round, source) {
            Which::Full => {
                let clan = topo.clan_for_sender(source);
                let peers = clan.members.iter().copied().filter(|p| *p != me);
                (Which::Full, peers.collect(), clan.clan_quorum)
            }
            Which::Meta => {
                let peers = topo.tribe().parties().filter(|p| *p != me);
                (Which::Meta, peers.collect(), topo.tribe().small_quorum())
            }
        }
    }

    /// Requests the view this party is due, up to `level` escalation: 1 = a
    /// single echoer (cheap probe), 2 = a quorum of peers that echoed
    /// `digest` (at least one of them is honest and holds it).
    fn start_pull(
        &mut self,
        round: Round,
        source: PartyId,
        digest: Digest,
        level: u8,
        fx: &mut Effects<P>,
    ) {
        let cold = self.instance(round, source).cold();
        if cold.pull_level >= level {
            return;
        }
        let already = cold.pull_level as usize;
        cold.pull_level = level;
        self.trace(RbcPhase::PullStarted, round, source, fx);
        let pull_retry = self.cfg.pull_retry;
        let (which, eligible, quorum) = self.pull_scope(round, source);
        let inst = self.instance(round, source);
        let want = if level >= 2 { quorum } else { 1 };
        let mut targets: Vec<PartyId> = inst
            .echo_set(&digest)
            .map(|set| {
                set.voters
                    .iter()
                    .filter(|p| eligible.contains(p))
                    .take(want)
                    .skip(already)
                    .collect()
            })
            .unwrap_or_default();
        // Fall back to any eligible peers if echo provenance is unknown (can
        // happen when certification arrives via certificate before echoes).
        if targets.is_empty() && already == 0 {
            targets = eligible.into_iter().take(want).collect();
        }
        let cold = inst.cold();
        cold.pull_digest = Some(digest);
        for t in targets {
            cold.asked.insert(t);
            fx.send(t, source, round, which.request(digest));
        }
        // Arm the retry chain: if none of the targets answers before the
        // deadline, `on_retry` rotates to peers not yet asked.
        if !cold.retry_armed {
            cold.retry_armed = true;
            fx.timers.push((pull_retry, retry_token(round, source)));
        }
    }

    /// Serves a pull request if this party holds the matching view.
    ///
    /// Rate limit: one *response* per peer, view and instance. The slot is
    /// only burned when a response is actually sent — a pull that raced
    /// ahead of the payload leaves the peer eligible for its one answer
    /// later (otherwise retries could never succeed against slow holders).
    fn serve_pull(
        &mut self,
        round: Round,
        source: PartyId,
        from: PartyId,
        which: Which,
        digest: Digest,
        fx: &mut Effects<P>,
    ) {
        let tel = self.cfg.telemetry.clone();
        let held = &mut self.instance(round, source).cold().held[which as usize];
        if held.served.contains(from) {
            tel.add(counters::REJECTED_DUPLICATE, 1);
            return;
        }
        let response = match &held.view {
            Some((View::Full(payload), d)) if *d == digest => RbcMsg::PullResp(payload.clone()),
            Some((View::Meta(meta), d)) if *d == digest => RbcMsg::MetaResp(meta.clone()),
            _ => return,
        };
        held.served.insert(from);
        fx.send(from, source, round, response);
    }

    /// Pull-retry deadline for `(round, source)` expired (see
    /// [`parse_retry_token`]): if the instance still needs data, re-send
    /// the pull to peers not yet asked (rotation) and re-arm with
    /// exponential backoff. A withholding first target therefore stalls
    /// delivery by at most one deadline.
    pub fn on_retry(&mut self, round: Round, source: PartyId, fx: &mut Effects<P>) {
        let _prof = clanbft_profiler::scope("rbc.retry");
        let base = self.cfg.pull_retry;
        if round < self.slots.rows.base() {
            return; // instance pruned (committed + GC'd): chain dies
        }
        let (which, eligible, want) = self.pull_scope(round, source);
        let certified = self.slots.certified(round, source);
        let Some(inst) = self.slots.get_mut(round, source) else {
            return;
        };
        let delivered = inst.is(fact::DELIVERED);
        let wanted = certified.or(inst.cold.as_ref().and_then(|cold| cold.pull_digest));
        let echoers = wanted.and_then(|digest| inst.echo_set(&digest));
        let echoers = echoers.map_or(PartySet::EMPTY, |set| set.voters.clone());
        let cold = Cold::of(&mut inst.cold);
        if delivered || cold.pull_attempts >= MAX_PULL_ATTEMPTS {
            cold.retry_armed = false;
            return;
        }
        cold.pull_attempts += 1;
        let delay = Micros(base.0 << (cold.pull_attempts.min(3) as u64));
        let Some(digest) = wanted else {
            // Nothing certified and no pull outstanding: keep a slow
            // heartbeat in case certification arrives later (it will
            // escalate pulls itself; this chain is already armed).
            fx.timers.push((delay, retry_token(round, source)));
            return;
        };
        if cold.held[which as usize].view.is_some() {
            cold.retry_armed = false;
            return;
        }
        // Rotate: prefer echoers of the digest we have not asked yet, then
        // any eligible peer not asked; once everyone was asked, clear the
        // slate and start over (a served response would have delivered).
        let mut targets: Vec<PartyId> = Vec::with_capacity(want);
        for p in echoers.iter().chain(eligible.iter().copied()) {
            if targets.len() >= want {
                break;
            }
            if eligible.contains(&p) && !cold.asked.contains(p) && !targets.contains(&p) {
                targets.push(p);
            }
        }
        if targets.is_empty() {
            cold.asked = PartySet::EMPTY;
            targets = eligible.into_iter().take(want).collect();
        }
        for t in &targets {
            cold.asked.insert(*t);
        }
        self.cfg.telemetry.add(counters::PULL_RETRIES, 1);
        self.trace(RbcPhase::PullRetry, round, source, fx);
        for t in targets {
            fx.send(t, source, round, which.request(digest));
        }
        fx.timers.push((delay, retry_token(round, source)));
    }
}

impl Which {
    /// The pull request for this view of the payload with `digest`.
    fn request<P: TribePayload>(self, digest: Digest) -> RbcMsg<P> {
        match self {
            Which::Full => RbcMsg::Pull { digest },
            Which::Meta => RbcMsg::PullMeta { digest },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::payload::BytesPayload;
    use crate::topology::ClanTopology;
    use clanbft_crypto::{Registry, Scheme};
    use clanbft_telemetry::{counters, MemRecorder, Telemetry};
    use clanbft_types::{Micros, TribeParams};

    const N: usize = 4;
    const ROUND: Round = Round(1);
    const SOURCE: PartyId = PartyId(0);

    struct Rig {
        engine: TribeRbc<BytesPayload>,
        auths: Vec<Arc<Authenticator>>,
        rec: Arc<MemRecorder>,
    }

    fn rig(me: u32) -> Rig {
        let topology = Arc::new(ClanTopology::whole_tribe(TribeParams::new(N)));
        let (registry, keypairs) = Registry::generate(Scheme::Keyed, N, 5);
        let auths: Vec<Arc<Authenticator>> = keypairs
            .into_iter()
            .enumerate()
            .map(|(i, kp)| Arc::new(Authenticator::new(i, kp, Arc::clone(&registry))))
            .collect();
        let (telemetry, rec) = Telemetry::mem();
        let mut cfg = EngineConfig::new(PartyId(me), topology, CostModel::free());
        cfg.telemetry = telemetry;
        let engine = TribeRbc::signed(cfg, Arc::clone(&auths[me as usize]));
        Rig { engine, auths, rec }
    }

    fn payload() -> BytesPayload {
        BytesPayload::new(vec![0x17; 128])
    }

    fn feed(rig: &mut Rig, from: u32, msg: RbcMsg<BytesPayload>) -> Effects<BytesPayload> {
        let mut fx = Effects::at(Micros(1));
        let packet = RbcPacket {
            source: SOURCE,
            round: ROUND,
            msg,
        };
        rig.engine.handle(PartyId(from), &packet, &mut fx);
        fx
    }

    fn feed_echo(rig: &mut Rig, signer: u32) -> Effects<BytesPayload> {
        let digest = payload().rbc_digest();
        let statement = echo_statement(SOURCE, ROUND, &digest);
        let sig = Some(rig.auths[signer as usize].sign_digest(&statement));
        feed(rig, signer, RbcMsg::Echo { digest, sig })
    }

    /// `(echoes counted, signature shares held)` for the instance under test.
    fn echo_state(rig: &Rig) -> (usize, usize) {
        let inst = rig.engine.slots.get(ROUND, SOURCE).expect("instance");
        let cold = inst.cold.as_ref().expect("the VAL was accepted");
        let spilled = cold.spill.echoes.iter().map(|(_, shares)| shares.len());
        (
            inst.echo_tallies().map(|set| usize::from(set.total)).sum(),
            cold.shares.len() + spilled.sum::<usize>(),
        )
    }

    #[test]
    fn forming_the_certificate_releases_the_echo_shares() {
        let mut r = rig(1);
        feed(&mut r, 0, RbcMsg::Val(payload()));
        feed_echo(&mut r, 0);
        feed_echo(&mut r, 2);
        assert_eq!(echo_state(&r), (2, 2), "shares are kept until quorum");

        // Third echo: quorum of 3, the certificate is formed from the shares.
        let fx = feed_echo(&mut r, 1);
        let cert = fx
            .out
            .iter()
            .find_map(|(_, p)| match &p.msg {
                RbcMsg::EchoCert { cert, .. } => Some(Arc::clone(cert)),
                _ => None,
            })
            .expect("certificate formed at quorum");
        assert_eq!(cert.count(), 3, "the certificate carries every share");
        assert_eq!(echo_state(&r), (3, 0), "no share outlives the certificate");

        // A late echo is still counted, its share is not stored; a duplicate
        // of it is rejected and counted as before.
        feed_echo(&mut r, 3);
        assert_eq!(echo_state(&r), (4, 0));
        let dup_before = r.rec.counter(counters::REJECTED_DUPLICATE);
        let fx = feed_echo(&mut r, 3);
        assert!(fx.out.is_empty() && fx.events.is_empty());
        assert_eq!(echo_state(&r), (4, 0));
        assert_eq!(r.rec.counter(counters::REJECTED_DUPLICATE), dup_before + 1);
    }

    #[test]
    fn accepting_a_certificate_releases_the_shares_collected_so_far() {
        // The donor reaches quorum first; the party under test holds two
        // shares of its own when the donor's certificate arrives.
        let mut donor = rig(2);
        feed(&mut donor, 0, RbcMsg::Val(payload()));
        feed_echo(&mut donor, 0);
        feed_echo(&mut donor, 1);
        let cert = feed_echo(&mut donor, 2)
            .out
            .into_iter()
            .find(|(_, p)| matches!(p.msg, RbcMsg::EchoCert { .. }))
            .map(|(_, p)| p.msg)
            .expect("donor formed a certificate");

        let mut r = rig(3);
        feed(&mut r, 0, RbcMsg::Val(payload()));
        feed_echo(&mut r, 0);
        feed_echo(&mut r, 3);
        assert_eq!(echo_state(&r), (2, 2));
        let fx = feed(&mut r, 2, cert);
        assert!(
            fx.events
                .iter()
                .any(|e| matches!(e, RbcEvent::DeliverFull { .. })),
            "a valid certificate delivers"
        );
        assert_eq!(echo_state(&r), (2, 0), "accepted certificate frees shares");

        // Echoes past certification: counted, reaching quorum changes
        // nothing (the certificate was already forwarded), nothing stored.
        feed_echo(&mut r, 1);
        let fx = feed_echo(&mut r, 2);
        assert!(fx.out.is_empty() && fx.events.is_empty());
        assert_eq!(echo_state(&r), (4, 0));
    }
}
