//! The tribe-assisted reliable-broadcast engine: messages, events,
//! per-instance state (custody of the payload and meta views, per-digest
//! echo tracking, at-most-once delivery), the pull sub-protocol, and the one
//! state machine that runs both of the paper's constructions. Instances
//! live in rows of a [`RoundWindow`] whose base is the prune horizon, each
//! row two blocks: what every instance keeps (the certified digest, the
//! delivered view, the cold part) and what it votes with. Once every
//! instance of a round has settled — delivered, with all `n` echoes counted
//! for the certified digest — the row folds by freeing its vote block; the
//! vote state is implied, and every later packet still goes through the
//! same core and readers.
//!
//! A call queues what it sends, the pull-retry timers it arms and the CPU
//! time it spends on the handler's [`Ctx`], and stamps its trace events
//! with [`Ctx::now`]; the runtime applies the `Ctx` once the handler
//! returns. The engine keeps only the [`RbcEvent`]s, which the caller takes
//! after each call ([`TribeRbc::take_events`]).

use crate::core::{self, Count, Once, Spill, Step, Tally, Vote};
use crate::payload::TribePayload;
use crate::pull::plan_pull;
use crate::topology::{ClanInfo, ClanTopology};
use clanbft_crypto::{
    multisig, AggregateSignature, Authenticator, Bitmap, Digest, Hasher, Signature,
};
use clanbft_simnet::cost::CostModel;
use clanbft_simnet::protocol::{Ctx, Message};
use clanbft_telemetry::{counters, Event, RbcPhase, Telemetry};
use clanbft_types::{Evidence, Micros, PartyId, PartySet, Round, RoundWindow};
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

/// Observable outcomes of the broadcast layer. An event names its instance
/// and digest only: a delivered view stays in the engine, read with
/// [`TribeRbc::payload`] and [`TribeRbc::meta_of`].
#[derive(Clone, Copy, Debug)]
pub enum RbcEvent {
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
        /// The certified digest of the payload (its
        /// [`TribePayload::rbc_digest`], computed once on acceptance).
        digest: Digest,
    },
    /// `r_deliver` of the meta view (parties outside the clan).
    DeliverMeta {
        /// Instance source.
        source: PartyId,
        /// Instance round.
        round: Round,
        /// The certified digest of the meta view (its
        /// [`TribePayload::meta_digest`], computed once on acceptance).
        digest: Digest,
    },
    /// Misbehaviour this party proved against an instance's source (once
    /// per instance; already counted and traced).
    Evidence(Evidence),
}

/// A message type the engine can queue its packets as: what the [`Ctx`] of
/// [`TribeRbc::broadcast`], [`TribeRbc::handle`] and [`TribeRbc::on_retry`]
/// carries. A standalone node's messages are the packets themselves; the
/// consensus layer wraps them in its own message type.
pub trait Carries<P: TribePayload>: Message + From<RbcPacket<P>> {}

impl<P: TribePayload, M: Message + From<RbcPacket<P>>> Carries<P> for M {}

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

    /// The meta view, of a payload or as it is.
    fn meta(&self) -> P::Meta {
        match self {
            View::Full(payload) => payload.meta(),
            View::Meta(meta) => meta.clone(),
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
}

impl<P: TribePayload> Held<P> {
    fn digest(&self) -> Option<Digest> {
        self.view.as_ref().map(|(_, d)| *d)
    }
}

/// The hot state of one broadcast instance: all an echo reads and writes.
/// One fixed-size record, stored in its round's vote block.
struct Votes {
    /// Echoes for the first digest seen — the only one unless the source
    /// equivocates (further digests spill into [`Cold::spill`]).
    echoes: Tally,
    /// Some packet for the instance was admitted: the slot is in use.
    touched: bool,
    /// The core's once-facts.
    once: Once,
}

/// 104 bytes whatever the tribe size: 24 of them are the empty handle of
/// the voter set's heap part, which only a tribe beyond
/// [`PartySet::INLINE`] fills. A test beside the consensus layer's payload
/// pins an instance's two records (`clanbft-consensus`, `payload.rs`).
const _: () = assert!(std::mem::size_of::<Votes>() == 104);

impl Votes {
    fn unused() -> Votes {
        Votes {
            echoes: Tally::new(Digest::ZERO),
            touched: false,
            once: Once::default(),
        }
    }

    /// Whether the instance has settled: it delivered, and its first echo
    /// tally, the certified digest's, holds every party. No vote can change
    /// its vote state from then on (see [`Slots::implied`]).
    fn settled<P: TribePayload>(&self, kept: &Kept<P>, n: usize) -> bool {
        let first = &self.echoes;
        kept.delivered.is_some() && usize::from(first.total) == n && first.digest == kept.certified
    }
}

/// What an echo after the first, or a duplicate certificate, never reads:
/// custody of the views, the share fold, and two boxes a benign instance
/// never opens. Each is created on first need. Delivery moves the delivered
/// view out to [`Kept::delivered`] and drops the record, unless it
/// holds one of the boxes or the evidence flag; a pull served after
/// delivery creates one again, with its boxed [`Pulls`] alone in use.
struct Cold<P: TribePayload> {
    /// The two views, indexed by [`Which`]. A full payload also fills the
    /// meta slot (it contains the meta view).
    held: [Held<P>; 2],
    /// Digest this party echoed (first valid VAL/meta accepted).
    echoed: Option<Digest>,
    /// The signed echoes counted in [`Votes::echoes`] until certification,
    /// folded into one ([`multisig::fold`]): with the tally's voters, the
    /// certificate this party forms.
    shares: Signature,
    /// The core's other tallies, created when it first asks: the echoes of
    /// an equivocating source, each with its share fold, and the readies.
    spill: Option<Box<Spill<Signature>>>,
    /// Created by the first pull this party starts or serves.
    pulls: Option<Box<Pulls>>,
    /// Whether evidence against the source was already recorded here (one
    /// record per instance, whatever it shows).
    evidence_logged: bool,
}

/// The pull sub-protocol's state of one instance, both sides of it: what
/// this party asked for and of whom, and whom it served. A benign instance
/// never pulls or serves, and has none.
#[derive(Default)]
struct Pulls {
    /// Peers already served a pull response, per [`Which`] (rate limiting).
    served: [PartySet; 2],
    /// Peers this party has directed a pull at (rotation avoids re-asking).
    asked: PartySet,
    /// Digest the pull is for, set when it starts.
    digest: Option<Digest>,
    /// Retry deadlines fired for this instance so far.
    attempts: u8,
    /// Whether the retry timer chain is running.
    retry_armed: bool,
}

impl<P: TribePayload> Cold<P> {
    /// The cold part behind `slot`, created if absent (takes the field, so
    /// the hot record stays borrowable beside it).
    fn of(slot: &mut Option<Box<Cold<P>>>) -> &mut Cold<P> {
        slot.get_or_insert_with(|| {
            let held = || Held {
                view: None,
                direct: false,
            };
            Box::new(Cold {
                held: [held(), held()],
                echoed: None,
                shares: Signature::default(),
                spill: None,
                pulls: None,
                evidence_logged: false,
            })
        })
    }

    fn spill(&mut self) -> &mut Spill<Signature> {
        self.spill.get_or_insert_with(Box::default)
    }

    fn pulls(&mut self) -> &mut Pulls {
        self.pulls.get_or_insert_with(Box::default)
    }
}

/// What an instance keeps besides its vote state, in its round's kept
/// block: all a reader asks of it, and all a settled instance holds.
struct Kept<P: TribePayload> {
    /// The certified digest, once the source is in [`Row::certified`].
    certified: Digest,
    /// The view this party `r_deliver`ed, once it has: all a later message
    /// reads of the instance besides the certified digest.
    delivered: Option<View<P>>,
    cold: Option<Box<Cold<P>>>,
}

impl<P: TribePayload> Kept<P> {
    fn unused() -> Kept<P> {
        Kept {
            certified: Digest::ZERO,
            delivered: None,
            cold: None,
        }
    }

    fn held(&self, which: Which) -> Option<&Held<P>> {
        self.cold.as_deref().map(|cold| &cold.held[which as usize])
    }

    /// The view of `which` this party holds, and its digest: once delivered
    /// the delivered view (a payload also stands for its meta view), before
    /// that the one in custody.
    fn view(&self, which: Which) -> Option<(&View<P>, Digest)> {
        match &self.delivered {
            Some(view) if which == Which::Meta || view.which() == which => {
                Some((view, self.certified))
            }
            Some(_) => None,
            None => self.held(which)?.view.as_ref().map(|(v, d)| (v, *d)),
        }
    }
}

/// One instance as a call sees it: its vote state, a settled one's lent
/// from [`Slots::implied`], and what it keeps.
struct Inst<'a, P: TribePayload> {
    votes: &'a mut Votes,
    kept: &'a mut Kept<P>,
}

impl<P: TribePayload> Inst<'_, P> {
    fn cold(&mut self) -> &mut Cold<P> {
        Cold::of(&mut self.kept.cold)
    }

    /// Echo tallies in first-seen order (one unless the source equivocates).
    fn echo_tallies(&self) -> impl Iterator<Item = &Tally> {
        let spill = self.kept.cold.iter().filter_map(|c| c.spill.as_deref());
        let spilled = spill.flat_map(|spill| &spill.echoes);
        std::iter::once(&self.votes.echoes)
            .filter(|first| first.total > 0)
            .chain(spilled.map(|(tally, _)| tally))
    }

    /// The echo bookkeeping for `digest`, if any echo for it was counted.
    fn echo_set(&self, digest: &Digest) -> Option<&Tally> {
        self.echo_tallies().find(|s| s.digest == *digest)
    }

    /// Whether `party`'s echo of `digest` was counted.
    fn echoed(&self, party: PartyId, digest: &Digest) -> bool {
        self.echo_set(digest)
            .is_some_and(|set| set.voters.contains(party))
    }

    /// `digest`'s echo tally, if an echo for it was counted, and beside it
    /// the fold of the signed echoes it counted.
    fn shares(&mut self, digest: &Digest) -> Option<(&Tally, &mut Signature)> {
        let cold = Cold::of(&mut self.kept.cold);
        let first = &self.votes.echoes;
        if first.total > 0 && first.digest == *digest {
            return Some((first, &mut cold.shares));
        }
        let mut spilled = cold.spill.as_deref_mut()?.echoes.iter_mut();
        spilled
            .find(|(t, _)| t.digest == *digest)
            .map(|(t, s)| (&*t, s))
    }
}

/// One round's instances, in two blocks of `n` records each: what each
/// keeps, and what each votes with. Both are empty while the round is
/// untouched. Once every instance has settled the row folds: the vote
/// block is freed, the kept block stays where it is, and each instance
/// borrows the vote state settling implies ([`Slots::implied`]).
struct Row<P: TribePayload> {
    /// Sources whose instance has a certified digest: every one once the
    /// row has folded. The fact lives here, not in the instance's record,
    /// because it is all a duplicate certificate asks — `n − 1` of the `2n`
    /// deliveries of a signed instance — and a row's worth of it stays in
    /// cache where `n` records do not.
    certified: PartySet,
    /// Per-source records of [`TribeRbc::SETTLED_BYTES`].
    kept: Box<[Kept<P>]>,
    /// Per-source vote state; empty once the row has folded.
    votes: Box<[Votes]>,
}

impl<P: TribePayload> Default for Row<P> {
    fn default() -> Self {
        Row {
            certified: PartySet::EMPTY,
            kept: Box::default(),
            votes: Box::default(),
        }
    }
}

impl<P: TribePayload> Row<P> {
    /// Whether every instance has settled and the vote block is gone.
    fn folded(&self) -> bool {
        self.votes.len() < self.kept.len()
    }

    /// What `source`'s instance keeps, if it is in use.
    fn get(&self, source: PartyId) -> Option<&Kept<P>> {
        let kept = self.kept.get(source.idx())?;
        let votes = self.votes.get(source.idx());
        votes.map_or(true, |votes| votes.touched).then_some(kept)
    }

    /// Adds `source`'s instance to `stats` if it is in use.
    fn count_into(&self, source: PartyId, stats: &mut BufferStats) {
        let Some(kept) = self.get(source) else {
            return;
        };
        let tallied = self
            .votes
            .get(source.idx())
            .map_or(true, |v| v.echoes.total > 0);
        let spill = kept.cold.as_ref().and_then(|cold| cold.spill.as_deref());
        let spilled = spill.map_or(0, |spill| spill.echoes.len());
        let pulls = kept.cold.as_ref().and_then(|cold| cold.pulls.as_deref());
        let pulling = pulls.is_some_and(|pulls| pulls.retry_armed);
        stats.instances += 1;
        stats.echo_digests += u64::from(tallied) + spilled as u64;
        stats.pending_pulls += u64::from(pulling && kept.delivered.is_none());
        stats.cold_records += u64::from(kept.cold.is_some());
        stats.pull_records += u64::from(pulls.is_some());
    }

    /// The instance of `source`, put to use, the row's two blocks created
    /// first if the round was untouched.
    #[inline(always)]
    fn touch<'a>(
        &'a mut self,
        source: PartyId,
        n: usize,
        implied: &'a mut Votes,
        clan: &ClanInfo,
    ) -> Inst<'a, P> {
        if self.kept.is_empty() {
            // The vote block first, so that the next row's, of the same
            // size, can take the hole a fold leaves (peak RSS, CHANGES.md).
            self.votes = (0..n).map(|_| Votes::unused()).collect();
            self.kept = (0..n).map(|_| Kept::unused()).collect();
        }
        self.lend(source, implied, clan)
    }

    /// `source`'s instance, put to use, in a row that holds it: its own
    /// vote state, or in a folded row `implied`, made the one it implies.
    #[inline(always)]
    fn lend<'a>(
        &'a mut self,
        source: PartyId,
        implied: &'a mut Votes,
        clan: &ClanInfo,
    ) -> Inst<'a, P> {
        let kept = &mut self.kept[source.idx()];
        let votes = match self.votes.get_mut(source.idx()) {
            Some(votes) => {
                votes.touched = true;
                votes
            }
            None => {
                implied.echoes.settle(kept.certified, clan);
                implied
            }
        };
        Inst { votes, kept }
    }
}

/// Instance storage addressed by index: a [`RoundWindow`] whose base is the
/// prune horizon, each round a [`Row`]. A lookup is two bounds checks. What
/// a far-future flood can allocate stays bounded by the admission window
/// ([`TribeRbc::admit`] gates every creating access), and replayed old
/// packets cannot recreate instances.
struct Slots<P: TribePayload> {
    rows: RoundWindow<Row<P>>,
    /// The vote state a settled instance implies, lent beside it in a
    /// folded row: a unanimous first tally (from the first fold on), whose
    /// digest and clan count the lending sets, and the flavour's
    /// [`Once::settled`]. A later vote is a duplicate or, for another
    /// digest, counts in [`Kept::cold`]'s spill box; none changes it.
    implied: Votes,
}

impl<P: TribePayload> Slots<P> {
    fn get(&self, round: Round, source: PartyId) -> Option<&Kept<P>> {
        self.rows.get(round)?.get(source)
    }

    fn get_mut(&mut self, round: Round, source: PartyId, clan: &ClanInfo) -> Option<Inst<'_, P>> {
        let row = self.rows.get_mut(round)?;
        row.get(source)?;
        Some(row.lend(source, &mut self.implied, clan))
    }

    /// The instance for `(round, source)`, put to use if it was not; `clan`
    /// is the source's clan in `round`. Always inlined, with the row's
    /// touch and lending and [`Slots::is_certified`]: every echo comes
    /// through here, and left to the compiler they cost `handle` about 3 %
    /// (alternating in-process runs of the signed engine, n = 50).
    ///
    /// # Panics
    ///
    /// Panics if `round` is below the window or `source` is not a party of
    /// the tribe — both excluded by [`TribeRbc::admit`].
    #[inline(always)]
    fn touch(&mut self, round: Round, source: PartyId, n: usize, clan: &ClanInfo) -> Inst<'_, P> {
        let row = self.rows.touch(round).expect("below the window");
        row.touch(source, n, &mut self.implied, clan)
    }

    /// Whether `(round, source)` has a certified digest: reads the row's
    /// set, not the instance.
    #[inline(always)]
    fn is_certified(&self, round: Round, source: PartyId) -> bool {
        let row = self.rows.get(round);
        row.is_some_and(|row| row.certified.contains(source))
    }

    /// The certified digest of `(round, source)`, if there is one.
    fn certified(&self, round: Round, source: PartyId) -> Option<Digest> {
        let row = self.rows.get(round)?;
        let certified = row.certified.contains(source);
        certified.then(|| row.kept[source.idx()].certified)
    }

    /// Folds `round`'s row if every instance in it has settled: the vote
    /// block is freed, and nothing is allocated or moved.
    fn fold(&mut self, round: Round, n: usize) {
        let Some(row) = self.rows.get_mut(round) else {
            return;
        };
        let mut instances = row.votes.iter().zip(&row.kept[..]);
        if row.votes.is_empty() || !instances.all(|(votes, kept)| votes.settled(kept, n)) {
            return;
        }
        // Settled implies delivered, and delivered implies certified.
        debug_assert_eq!(row.certified.count(), n);
        if self.implied.echoes.total == 0 {
            self.implied.echoes = Tally::unanimous(n);
        }
        row.votes = Box::default();
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
    /// Instances with a cold record: undelivered ones that took a view, a
    /// share or a vote, and delivered ones that pulled, served, spilled or
    /// logged evidence.
    pub cold_records: u64,
    /// Instances with a pull record: those that started a pull (or
    /// deferred one to its deadline) or served one.
    pub pull_records: u64,
    /// Rounds whose every instance has settled (delivered, with all `n`
    /// echoes counted for the certified digest), kept folded.
    pub settled_rows: u64,
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
    /// the paper's implementation (§7), echo signatures are aggregated as
    /// they arrive, into one fold per digest; a receiver verifies a
    /// certificate's fold whole and rejects it whole if it fails.
    Signed {
        auth: Arc<Authenticator>,
        /// When false, echo shares and certificate folds are not actually
        /// checked (their CPU cost is still charged, so no simulated number
        /// moves); when true, each share is checked as it arrives.
        /// Off, a benign run saves about a fifth of its host time at
        /// n ≤ 50 (EXPERIMENTS.md, "What real signature verification
        /// costs"); correctness tests keep it on.
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
    /// Sources that echoed a view which then did not arrive within a pull
    /// deadline: their views are pulled at once from then on.
    struck: PartySet,
    /// What the calls since the last [`TribeRbc::take_events`] yielded.
    events: Vec<RbcEvent>,
}

impl<P: TribePayload> TribeRbc<P> {
    /// Bytes of an instance's two records in its round's row, `n` per
    /// round: what it votes with and what it keeps.
    pub const INSTANCE_BYTES: usize = std::mem::size_of::<Votes>() + std::mem::size_of::<Kept<P>>();
    /// Bytes of the cold part each instance in use allocates.
    pub const COLD_BYTES: usize = std::mem::size_of::<Cold<P>>();
    /// Bytes of an instance's record in a settled round's folded row: what
    /// it keeps.
    pub const SETTLED_BYTES: usize = std::mem::size_of::<Kept<P>>();

    fn new(cfg: EngineConfig, flavour: Flavour) -> TribeRbc<P> {
        let signed = matches!(flavour, Flavour::Signed { .. });
        let implied = Votes {
            touched: true,
            once: Once::settled(signed),
            ..Votes::unused()
        };
        TribeRbc {
            cfg,
            flavour,
            slots: Slots {
                rows: RoundWindow::default(),
                implied,
            },
            round_hint: Round(0),
            struck: PartySet::EMPTY,
            events: Vec::new(),
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
        for (_, row) in self.slots.rows.iter() {
            stats.settled_rows += u64::from(row.folded());
            for source in (0..row.kept.len()).map(|i| PartyId(i as u32)) {
                row.count_into(source, &mut stats);
            }
        }
        stats
    }

    /// The meta view (vertex) held for `(round, source)`, if any, with the
    /// digest computed when it was accepted — lets the consensus layer act
    /// on certification before the full payload lands, without rehashing.
    pub fn meta_of(&self, round: Round, source: PartyId) -> Option<(P::Meta, Digest)> {
        let (view, digest) = self.slots.get(round, source)?.view(Which::Meta)?;
        Some((view.meta(), digest))
    }

    /// The full payload this party delivered for `(round, source)`: `None`
    /// before delivery, for a party that delivered the meta view, and once
    /// garbage collection passed the round ([`TribeRbc::prune_below`]).
    pub fn payload(&self, round: Round, source: PartyId) -> Option<&P> {
        match self.slots.get(round, source)?.delivered.as_ref()? {
            View::Full(payload) => Some(payload),
            View::Meta(_) => None,
        }
    }

    /// True iff this party has delivered for `(round, source)`.
    pub fn delivered(&self, round: Round, source: PartyId) -> bool {
        self.slots
            .get(round, source)
            .is_some_and(|kept| kept.delivered.is_some())
    }

    /// Drops state for instances strictly below `round`, delivered views
    /// included (garbage collection; the DAG layer prunes in lockstep), and
    /// raises the window's base, so replayed packets cannot resurrect them.
    pub fn prune_below(&mut self, round: Round) {
        self.slots.rows.prune_below(round);
    }

    /// Moves the events the calls since the last take yielded, in order,
    /// to the end of `into`. The engine keeps its list's storage, so a
    /// caller draining one vector allocates nothing once both are grown.
    pub fn take_events(&mut self, into: &mut Vec<RbcEvent>) {
        into.append(&mut self.events);
    }

    /// Whether a call since the last [`TribeRbc::take_events`] yielded an
    /// event.
    pub fn has_events(&self) -> bool {
        !self.events.is_empty()
    }

    /// `r_bcast`: disseminates `payload` as this party's broadcast for
    /// `round`. The full payload goes to the sender's clan (including the
    /// sender itself, via loopback), the meta view to everyone else.
    pub fn broadcast<M: Carries<P>>(&mut self, round: Round, payload: P, ctx: &mut Ctx<'_, M>) {
        let _prof = clanbft_profiler::scope("rbc.broadcast");
        self.note_round(round);
        let me = self.cfg.me;
        let topo = self.cfg.topology_at(round).clone();
        let clan = topo.clan_for_sender(me);
        let meta = payload.meta();
        ctx.charge(self.cfg.cost.hash(payload.wire_bytes()));
        if matches!(self.flavour, Flavour::Signed { .. }) {
            ctx.charge(self.cfg.cost.sign());
        }
        self.trace(RbcPhase::ValSent, round, me, ctx.now());
        for p in topo.tribe().parties() {
            let msg = if clan.contains(p) {
                RbcMsg::Val(payload.clone())
            } else {
                RbcMsg::ValMeta(meta.clone())
            };
            ctx.send(p, packet(me, round, msg));
        }
    }

    /// Handles one received packet. The packet stays the caller's: a view
    /// or certificate this party keeps is cloned (two `Arc`s) at that point.
    pub fn handle<M: Carries<P>>(
        &mut self,
        from: PartyId,
        packet: &RbcPacket<P>,
        ctx: &mut Ctx<'_, M>,
    ) {
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
                self.on_view(round, source, View::Full(p.clone()), true, ctx)
            }
            RbcMsg::ValMeta(m) if from == source => {
                self.on_view(round, source, View::Meta(m.clone()), true, ctx)
            }
            RbcMsg::Val(_) | RbcMsg::ValMeta(_) => {}
            RbcMsg::PullResp(p) => self.on_view(round, source, View::Full(p.clone()), false, ctx),
            RbcMsg::MetaResp(m) => self.on_view(round, source, View::Meta(m.clone()), false, ctx),
            RbcMsg::Pull { digest } => {
                self.serve_pull(round, source, from, Which::Full, *digest, ctx)
            }
            RbcMsg::PullMeta { digest } => {
                self.serve_pull(round, source, from, Which::Meta, *digest, ctx)
            }
            RbcMsg::Echo { digest, sig } => {
                let share = match (&self.flavour, sig) {
                    (Flavour::SignatureFree, _) => None,
                    // Unsigned echoes are not acceptable here.
                    (Flavour::Signed { .. }, None) => return,
                    (Flavour::Signed { auth, verify_sigs }, Some(sig)) => {
                        // Aggregated as it arrives (paper §7), charged whether
                        // or not it is checked. A certified instance folds no
                        // share, so checks none; a bad share is dropped before
                        // it is counted, so a certificate formed here verifies.
                        ctx.charge(self.cfg.cost.aggregate(1));
                        let statement = || echo_statement(source, round, digest);
                        let bad = || !auth.verify_digest(from.idx(), &statement(), sig);
                        if self.slots.is_certified(round, source) {
                            None
                        } else if *verify_sigs && bad() {
                            self.cfg.telemetry.add(counters::REJECTED_BAD_SIG, 1);
                            return;
                        } else {
                            Some(sig)
                        }
                    }
                };
                self.on_echo(round, source, from, *digest, share, ctx);
            }
            // Each flavour ignores the other's certification message.
            RbcMsg::Ready { digest } => {
                if matches!(self.flavour, Flavour::SignatureFree) {
                    let (step, _) = self.vote(round, source, Vote::Ready(from, *digest));
                    self.apply(round, source, *digest, step, None, ctx);
                }
            }
            RbcMsg::EchoCert { digest, cert } => {
                // Duplicate certificates for an already-certified instance
                // are dropped before any verification cost is paid (and
                // before the instance's record is touched).
                if self.slots.is_certified(round, source) {
                    return;
                }
                if let Some(step) = self.validate_cert(source, round, *digest, cert, ctx) {
                    self.apply(round, source, *digest, step, Some(cert), ctx);
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
    fn instance(&mut self, round: Round, source: PartyId) -> Inst<'_, P> {
        let clan = self.cfg.topology_at(round).clan_for_sender(source);
        self.slots.touch(round, source, self.cfg.n(), clan)
    }

    /// Records one RBC phase event at `at`, the handler's `Ctx::now`.
    fn trace(&self, phase: RbcPhase, round: Round, source: PartyId, at: Micros) {
        self.cfg.telemetry.event(
            at,
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
        let cold = Cold::of(&mut self.instance(round, source).kept.cold);
        !std::mem::replace(&mut cold.evidence_logged, true)
    }

    /// Counts, traces (at `at`) and hands up one evidence record (callers
    /// dedup per instance).
    fn record_evidence(&mut self, ev: Evidence, at: Micros) {
        let tel = &self.cfg.telemetry;
        tel.add(counters::EVIDENCE_RECORDED, 1);
        tel.event(
            at,
            self.cfg.me,
            Event::EvidenceRecorded {
                kind: ev.kind(),
                round: ev.round(),
                culprit: ev.culprit(),
            },
        );
        self.events.push(RbcEvent::Evidence(ev));
    }

    /// Records that `source` stands behind two digests in `round`, once per
    /// instance; returns whether this call recorded it.
    fn note_equivocation(
        &mut self,
        round: Round,
        source: PartyId,
        first: Digest,
        second: Digest,
        at: Micros,
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
            at,
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
    fn on_view<M: Carries<P>>(
        &mut self,
        round: Round,
        source: PartyId,
        view: View<P>,
        direct: bool,
        ctx: &mut Ctx<'_, M>,
    ) {
        // A clan member must not echo on the meta view alone: its echo
        // asserts custody of the full payload (that is what makes f_c+1
        // clan echoes imply retrievability).
        let may_echo =
            direct && (view.which() == Which::Full || self.my_view(round, source) == Which::Meta);
        if let Some(digest) = self.accept(round, source, view, direct, ctx) {
            if may_echo {
                self.maybe_echo(round, source, digest, ctx);
            }
        }
        self.try_deliver(round, source);
    }

    /// Takes custody of a view; returns its digest if it is fresh and
    /// valid.
    ///
    /// `direct` conflicts are attributable equivocation (evidence +
    /// counter), while pulled-copy redundancy (several responses racing
    /// in) is protocol-normal and stays silent.
    fn accept<M: Carries<P>>(
        &mut self,
        round: Round,
        source: PartyId,
        view: View<P>,
        direct: bool,
        ctx: &mut Ctx<'_, M>,
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
                self.record_evidence(ev, ctx.now());
            }
            return None;
        }
        let digest = match &view {
            View::Full(payload) => {
                ctx.charge(cost.hash(payload.wire_bytes()));
                if !payload.validate() {
                    tel.add(counters::REJECTED_BAD_PAYLOAD, 1);
                    return None;
                }
                payload.rbc_digest()
            }
            View::Meta(meta) => P::meta_digest(meta),
        };
        let certified = self.slots.certified(round, source);
        let mut inst = self.instance(round, source);
        // Once delivered, the certified digest stands for every view: a
        // late copy is a duplicate or a conflict, never taken or echoed.
        let held = match inst.kept.delivered {
            Some(_) => certified,
            None => inst.kept.held(which).and_then(Held::digest),
        };
        if let Some(held) = held {
            if direct && held == digest {
                tel.add(counters::REJECTED_DUPLICATE, 1);
            } else if direct && !self.note_equivocation(round, source, held, digest, ctx.now()) {
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
                && self.note_equivocation(round, source, certified, digest, ctx.now());
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
            ctx.charge(cost.db_write());
        }
        let held = &mut cold.held[which as usize];
        held.view = Some((view, digest));
        held.direct = direct;
        Some(digest)
    }

    /// Echoes `digest` once per instance (signed in the signed flavour).
    fn maybe_echo<M: Carries<P>>(
        &mut self,
        round: Round,
        source: PartyId,
        digest: Digest,
        ctx: &mut Ctx<'_, M>,
    ) {
        let cold = Cold::of(&mut self.instance(round, source).kept.cold);
        if cold.echoed.is_some() {
            return;
        }
        cold.echoed = Some(digest);
        let sig = match &self.flavour {
            Flavour::SignatureFree => None,
            Flavour::Signed { auth, .. } => {
                ctx.charge(self.cfg.cost.sign());
                let statement = echo_statement(source, round, &digest);
                Some(auth.sign_digest(&statement))
            }
        };
        self.trace(RbcPhase::Echoed, round, source, ctx.now());
        let echo = packet(source, round, RbcMsg::Echo { digest, sig });
        ctx.multicast(self.cfg.topology.tribe().parties(), echo);
    }

    /// Counts one vote on `(round, source)`'s instance through the
    /// flavour's core, putting the instance to use. Always inlined, like the
    /// core's functions: the echo path is the engine's hot loop, where each
    /// call cost `handle` a few per cent (alternating in-process runs of the
    /// signed engine, n = 50).
    #[inline(always)]
    fn vote(&mut self, round: Round, source: PartyId, vote: Vote) -> (Step, Inst<'_, P>) {
        let (n, tribe) = (self.cfg.n(), self.cfg.topology.tribe());
        let clan = self.cfg.topology_at(round).clan_for_sender(source);
        let mut inst = self.slots.touch(round, source, n, clan);
        let Inst { votes, kept } = &mut inst;
        let (first, once) = (&mut votes.echoes, &mut votes.once);
        let cold = &mut kept.cold;
        let step = match self.flavour {
            Flavour::SignatureFree => {
                core::signature_free(tribe, clan, first, once, || Cold::of(cold).spill(), vote)
            }
            Flavour::Signed { .. } => {
                core::signed(tribe, clan, first, once, || Cold::of(cold).spill(), vote)
            }
        };
        (step, inst)
    }

    /// Counts an echo through the flavour's core — one visit to the
    /// instance's record — folds its share (`sig`, unless the instance is
    /// certified) towards a certificate of this party's own, and applies
    /// the step.
    fn on_echo<M: Carries<P>>(
        &mut self,
        round: Round,
        source: PartyId,
        from: PartyId,
        digest: Digest,
        sig: Option<&Signature>,
        ctx: &mut Ctx<'_, M>,
    ) {
        let n = self.cfg.n();
        let (step, mut inst) = self.vote(round, source, Vote::Echo(from, digest));
        // The echo that completes the first tally may settle the instance.
        let full = usize::from(inst.votes.echoes.total) == n && step.count == Count::Counted;
        let counted = matches!(step.count, Count::Counted | Count::Split);
        if let Some(sig) = sig.filter(|_| counted) {
            // Counted once per voter: the tally guards the fold.
            let (_, shares) = inst.shares(&digest).expect("a counted echo's tally");
            multisig::fold(shares, sig);
        }
        if step.count == Count::Split {
            // A second digest behind one instance: the source is behind two
            // payloads (or an echoer is lying about it — see Evidence docs
            // on attribution strength per variant). The "first" digest is
            // what this party echoed or accepted, else the first one echoed
            // (an earlier split has recorded the instance's one record).
            let delivered = inst.kept.delivered.as_ref().map(|_| inst.kept.certified);
            let cold = inst.cold();
            let first = cold
                .echoed
                .or(delivered)
                .or(cold.held[Which::Full as usize].digest())
                .or(cold.held[Which::Meta as usize].digest())
                .unwrap_or(inst.votes.echoes.digest);
            self.note_equivocation(round, source, first, digest, ctx.now());
        }
        // Most echoes are counted and fire nothing: no call for them.
        if step != Step::default() {
            self.apply(round, source, digest, step, None, ctx);
        }
        if full {
            self.slots.fold(round, n);
        }
    }

    /// Verifies a received certificate's aggregate signature and hands the
    /// core its signers: how many, and how many of them from the source's
    /// clan, or none if the fold does not verify. `None` in the
    /// signature-free flavour.
    fn validate_cert<M: Carries<P>>(
        &mut self,
        source: PartyId,
        round: Round,
        digest: Digest,
        cert: &AggregateSignature,
        ctx: &mut Ctx<'_, M>,
    ) -> Option<Step> {
        let Flavour::Signed { auth, verify_sigs } = &self.flavour else {
            return None;
        };
        let clan = self.cfg.topology_at(round).clan_for_sender(source);
        ctx.charge(self.cfg.cost.agg_verify(cert.count()));
        let statement = echo_statement(source, round, &digest);
        // All or nothing, as with BLS: a fold names no culprit.
        let valid = !verify_sigs || cert.verify(auth.registry(), statement.as_bytes());
        let in_clan = |i| clan.contains(PartyId(i as u32));
        let vote = match valid {
            true => Vote::Cert(cert.count(), cert.signers.count_matching(in_clan)),
            false => Vote::Cert(0, 0),
        };
        // An admitted first certificate puts the slot to use, valid or not.
        let (step, _) = self.vote(round, source, vote);
        // A bad fold, or too few signers: counted once, never silent.
        if !step.certify {
            self.cfg.telemetry.add(counters::REJECTED_BAD_SIG, 1);
        }
        Some(step)
    }

    /// Applies what a vote did to `digest`'s instance, in the one order
    /// both figures fire in: certificate, echo quorum, READY, certify. A
    /// certificate step forwards `received`, or forms one from the digest's
    /// tally and share fold.
    fn apply<M: Carries<P>>(
        &mut self,
        round: Round,
        source: PartyId,
        digest: Digest,
        step: Step,
        received: Option<&Arc<AggregateSignature>>,
        ctx: &mut Ctx<'_, M>,
    ) {
        match step.count {
            Count::Duplicate => self.cfg.telemetry.add(counters::REJECTED_DUPLICATE, 1),
            Count::Capped => self.cfg.telemetry.add(counters::REJECTED_BUFFER_FULL, 1),
            Count::Counted | Count::Split => {}
        }
        if step.send_cert {
            let cert = match received {
                Some(cert) => Arc::clone(cert),
                None => {
                    // It fires once, at or before certification: the tally's
                    // voters are exactly the signers folded.
                    let mut signers = Bitmap::new(self.cfg.n());
                    let mut inst = self.instance(round, source);
                    let (tally, shares) = inst.shares(&digest).expect("an echo quorum");
                    for voter in tally.voters.iter() {
                        signers.set(voter.idx());
                    }
                    Arc::new(AggregateSignature::from_parts(signers, *shares))
                }
            };
            let me = self.cfg.me;
            let others = self.cfg.topology.tribe().parties().filter(|p| *p != me);
            ctx.multicast(
                others,
                packet(source, round, RbcMsg::EchoCert { digest, cert }),
            );
        }
        if step.echo_quorum {
            let lacks_payload = self
                .instance(round, source)
                .kept
                .view(Which::Full)
                .is_none();
            self.trace(RbcPhase::EchoQuorum, round, source, ctx.now());
            if lacks_payload && self.my_view(round, source) == Which::Full {
                // §5's early download: a clan member starts the pull at
                // the echo quorum, before certification.
                self.start_pull(round, source, digest, ctx);
            }
        }
        if step.send_ready {
            let ready = packet(source, round, RbcMsg::Ready { digest });
            ctx.multicast(self.cfg.topology.tribe().parties(), ready);
        }
        if step.certify {
            self.certify(round, source, digest, ctx);
        }
    }

    /// Marks the digest certified and performs delivery or starts the pull
    /// of the view this party is due.
    fn certify<M: Carries<P>>(
        &mut self,
        round: Round,
        source: PartyId,
        digest: Digest,
        ctx: &mut Ctx<'_, M>,
    ) {
        let which = self.my_view(round, source);
        // Certification required a real quorum, so the round is
        // legitimately active: widen the admission window to it.
        self.note_round(round);
        // A certified digest stands.
        let row = self.slots.rows.touch(round).expect("below the window");
        if !row.certified.insert(source) {
            return;
        }
        let inst = self.instance(round, source);
        inst.kept.certified = digest;
        // A direct copy from the source that disagrees with the digest the
        // tribe certified is attributable equivocation.
        let conflicting = inst
            .kept
            .cold
            .iter()
            .flat_map(|cold| &cold.held)
            .find_map(|h| h.digest().filter(|d| *d != digest && h.direct));
        self.events.push(RbcEvent::Certified {
            source,
            round,
            digest,
        });
        self.trace(RbcPhase::Certified, round, source, ctx.now());
        let delivered = self.try_deliver(round, source);
        if delivered {
            let phase = match which {
                Which::Full => RbcPhase::DeliverFull,
                Which::Meta => RbcPhase::DeliverMeta,
            };
            self.trace(phase, round, source, ctx.now());
        }
        if let Some(first) = conflicting {
            self.note_equivocation(round, source, first, digest, ctx.now());
        }
        if !delivered {
            // View missing or (Byzantine sender) mismatched — discard a
            // mismatch and pull the certified one.
            if let Some(cold) = &mut self.instance(round, source).kept.cold {
                cold.held[which as usize].view = None;
            }
            self.start_pull(round, source, digest, ctx);
        }
    }

    /// Delivers if the instance is certified and this party holds the
    /// matching view it is due (payload for clan members, meta view for
    /// everyone else); returns whether it delivered now. Delivery may
    /// settle the instance.
    fn try_deliver(&mut self, round: Round, source: PartyId) -> bool {
        let which = self.my_view(round, source);
        let certified = self.slots.certified(round, source);
        let n = self.cfg.n();
        let clan = self.cfg.topology_at(round).clan_for_sender(source);
        let Inst { votes, kept } = self.slots.touch(round, source, n, clan);
        let (Some(digest), None, Some(cold)) = (certified, &kept.delivered, &mut kept.cold) else {
            return false;
        };
        let held = &mut cold.held[which as usize].view;
        let Some((view, _)) = held.take_if(|(_, held)| *held == digest) else {
            return false;
        };
        // What a benign instance never opens keeps the record; the rest of
        // it has no reader now.
        if cold.pulls.is_none() && cold.spill.is_none() && !cold.evidence_logged {
            kept.cold = None;
        }
        self.events.push(match which {
            Which::Full => RbcEvent::DeliverFull {
                source,
                round,
                digest,
            },
            Which::Meta => RbcEvent::DeliverMeta {
                source,
                round,
                digest,
            },
        });
        kept.delivered = Some(view);
        if usize::from(votes.echoes.total) == n {
            self.slots.fold(round, n);
        }
        true
    }

    /// Starts the pull of the view this party is due, at the echo quorum
    /// (the payload only) or at certification, whichever comes first, and
    /// arms the retry chain. An honest source sends every VAL and ValMeta
    /// before its own echo, so if that echo of `digest` was counted and no
    /// view came straight from the source, the view is on its way: nobody
    /// is asked before the first deadline, unless the source let one pass
    /// before ([`TribeRbc::on_retry`] strikes it).
    fn start_pull<M: Carries<P>>(
        &mut self,
        round: Round,
        source: PartyId,
        digest: Digest,
        ctx: &mut Ctx<'_, M>,
    ) {
        let struck = self.struck.contains(source);
        let mut inst = self.instance(round, source);
        let direct = inst
            .kept
            .cold
            .iter()
            .flat_map(|cold| &cold.held)
            .any(|h| h.direct);
        let on_its_way = inst.echoed(source, &digest) && !direct && !struck;
        let pulls = inst.cold().pulls();
        if pulls.asked.count() > 0 {
            return;
        }
        pulls.digest = Some(digest);
        let armed = std::mem::replace(&mut pulls.retry_armed, true);
        if !armed {
            ctx.set_timer(self.cfg.pull_retry, retry_token(round, source));
        }
        if !on_its_way {
            self.trace(RbcPhase::PullStarted, round, source, ctx.now());
            self.ask(round, source, digest, ctx);
        }
    }

    /// Pulls `digest`'s view from whom [`plan_pull`] picks: of the source's
    /// clan (`f_c + 1`) for the payload, of the tribe (`f + 1`) for the meta.
    fn ask<M: Carries<P>>(
        &mut self,
        round: Round,
        source: PartyId,
        digest: Digest,
        ctx: &mut Ctx<'_, M>,
    ) {
        let me = self.cfg.me;
        let topo = self.cfg.topology_at(round);
        let (tribe, clan) = (topo.tribe(), topo.clan_for_sender(source));
        let which = self.my_view(round, source);
        let (peers, quorum) = match which {
            Which::Full => (clan.member_bits.clone(), clan.clan_quorum),
            Which::Meta => (tribe.parties().collect(), tribe.small_quorum()),
        };
        let mut inst = self.instance(round, source);
        let echoers = inst.echo_set(&digest).map(|set| set.voters.clone());
        let pulls = inst.cold().pulls();
        let echoers = echoers.unwrap_or_default();
        for to in plan_pull(quorum, &echoers, &peers, me, &mut pulls.asked) {
            let request = match which {
                Which::Full => RbcMsg::Pull { digest },
                Which::Meta => RbcMsg::PullMeta { digest },
            };
            ctx.send(to, packet(source, round, request));
        }
    }

    /// Serves a pull request if this party holds the matching view; a pull
    /// it cannot answer is dropped, uncounted.
    ///
    /// Rate limit: one *response* per peer, view and instance; only a repeat
    /// of a pull this party can answer is a duplicate. The slot is only
    /// burned when a response is actually sent — a pull that raced ahead of
    /// the payload leaves the peer eligible for its one answer later
    /// (otherwise retries could never succeed against slow holders).
    fn serve_pull<M: Carries<P>>(
        &mut self,
        round: Round,
        source: PartyId,
        from: PartyId,
        which: Which,
        digest: Digest,
        ctx: &mut Ctx<'_, M>,
    ) {
        let mut inst = self.instance(round, source);
        let Some((view, _)) = inst.kept.view(which).filter(|(_, held)| *held == digest) else {
            return;
        };
        let pulls = inst
            .kept
            .cold
            .as_ref()
            .and_then(|cold| cold.pulls.as_deref());
        if pulls.is_some_and(|pulls| pulls.served[which as usize].contains(from)) {
            self.cfg.telemetry.add(counters::REJECTED_DUPLICATE, 1);
            return;
        }
        let response = match (view, which) {
            (View::Full(payload), Which::Full) => RbcMsg::PullResp(payload.clone()),
            (view, _) => RbcMsg::MetaResp(view.meta()),
        };
        inst.cold().pulls().served[which as usize].insert(from);
        ctx.send(from, packet(source, round, response));
    }

    /// Pull-retry deadline for `(round, source)` expired (see
    /// [`parse_retry_token`]): if the instance still needs data, send the
    /// pull to peers not yet asked and re-arm with exponential backoff. A
    /// source whose echo was counted is struck. A withholding target
    /// therefore stalls delivery by one deadline, and a withholding source
    /// by one deadline once.
    pub fn on_retry<M: Carries<P>>(&mut self, round: Round, source: PartyId, ctx: &mut Ctx<'_, M>) {
        let _prof = clanbft_profiler::scope("rbc.retry");
        if round < self.slots.rows.base() {
            return; // instance pruned (committed + GC'd): chain dies
        }
        let which = self.my_view(round, source);
        let certified = self.slots.certified(round, source);
        let clan = self.cfg.topology_at(round).clan_for_sender(source);
        let inst = self.slots.get_mut(round, source, clan);
        let Some(inst) = inst.filter(|inst| inst.kept.delivered.is_none()) else {
            return; // delivered: the chain dies
        };
        let Cold { held, pulls, .. } = Cold::of(&mut inst.kept.cold);
        let pulls = pulls.get_or_insert_with(Box::default);
        if pulls.attempts >= MAX_PULL_ATTEMPTS {
            pulls.retry_armed = false;
            return;
        }
        pulls.attempts += 1;
        let delay = Micros(self.cfg.pull_retry.0 << (pulls.attempts.min(3) as u64));
        let Some(digest) = certified.or(pulls.digest) else {
            // Nothing certified and no pull started: a slow heartbeat until
            // certification, which starts a pull of its own.
            ctx.set_timer(delay, retry_token(round, source));
            return;
        };
        if held[which as usize].view.is_some() {
            pulls.retry_armed = false;
            return;
        }
        if inst.echoed(source, &digest) {
            self.struck.insert(source);
        }
        self.cfg.telemetry.add(counters::PULL_RETRIES, 1);
        self.trace(RbcPhase::PullRetry, round, source, ctx.now());
        self.ask(round, source, digest, ctx);
        ctx.set_timer(delay, retry_token(round, source));
    }
}

/// `msg` of `(round, source)`'s instance, as the message type `M` carries it.
fn packet<P: TribePayload, M: Carries<P>>(source: PartyId, round: Round, msg: RbcMsg<P>) -> M {
    RbcPacket { source, round, msg }.into()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::payload::BytesPayload;
    use crate::topology::ClanTopology;
    use clanbft_crypto::{Registry, Scheme};
    use clanbft_telemetry::{counters, MemRecorder, Telemetry};
    use clanbft_testkit::{check_shrink, tk_assert, tk_assert_eq};
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
        rig_on(ClanTopology::whole_tribe(TribeParams::new(N)), me)
    }

    fn rig_on(topology: ClanTopology, me: u32) -> Rig {
        rig_with(topology, me, true)
    }

    /// A party of `topology`'s tribe, in the signed or the signature-free
    /// flavour; every rig of one tribe size holds the same keys.
    fn rig_with(topology: ClanTopology, me: u32, signed: bool) -> Rig {
        let topology = Arc::new(topology);
        let n = topology.tribe().n();
        let (registry, keypairs) = Registry::generate(Scheme::Keyed, n, 5);
        let auths: Vec<Arc<Authenticator>> = keypairs
            .into_iter()
            .enumerate()
            .map(|(i, kp)| Arc::new(Authenticator::new(i, kp, Arc::clone(&registry))))
            .collect();
        let (telemetry, rec) = Telemetry::mem();
        let mut cfg = EngineConfig::new(PartyId(me), topology, CostModel::free());
        cfg.telemetry = telemetry;
        let engine = match signed {
            true => TribeRbc::signed(cfg, Arc::clone(&auths[me as usize])),
            false => TribeRbc::signature_free(cfg),
        };
        Rig { engine, auths, rec }
    }

    fn payload() -> BytesPayload {
        BytesPayload::new(vec![0x17; 128])
    }

    /// What one call queued, one entry per recipient, the timers it armed
    /// and the events it yielded.
    struct Queued {
        out: Vec<(PartyId, RbcPacket<BytesPayload>)>,
        timers: Vec<(Micros, u64)>,
        events: Vec<RbcEvent>,
    }

    impl Queued {
        /// The peers a full-view pull went to, in order.
        fn pulls(&self) -> Vec<PartyId> {
            let pull = |(to, p): &(PartyId, RbcPacket<_>)| {
                matches!(p.msg, RbcMsg::Pull { .. }).then_some(*to)
            };
            self.out.iter().filter_map(pull).collect()
        }
    }

    fn run(
        rig: &mut Rig,
        call: impl FnOnce(&mut TribeRbc<BytesPayload>, &mut Ctx<'_, RbcPacket<BytesPayload>>),
    ) -> Queued {
        let cost = CostModel::free();
        let mut ctx = Ctx::new(rig.engine.config().me, Micros(1), &cost);
        call(&mut rig.engine, &mut ctx);
        let mut events = Vec::new();
        rig.engine.take_events(&mut events);
        Queued {
            out: ctx.take_outbox(),
            timers: ctx.take_timers(),
            events,
        }
    }

    fn feed_in(rig: &mut Rig, round: Round, from: u32, msg: RbcMsg<BytesPayload>) -> Queued {
        feed_of(rig, round, SOURCE, from, msg)
    }

    fn feed_of(
        rig: &mut Rig,
        round: Round,
        source: PartyId,
        from: u32,
        msg: RbcMsg<BytesPayload>,
    ) -> Queued {
        let packet = RbcPacket { source, round, msg };
        run(rig, |engine, ctx| {
            engine.handle(PartyId(from), &packet, ctx)
        })
    }

    fn feed(rig: &mut Rig, from: u32, msg: RbcMsg<BytesPayload>) -> Queued {
        feed_in(rig, ROUND, from, msg)
    }

    fn echo_in(rig: &mut Rig, round: Round, signer: u32) -> Queued {
        let digest = payload().rbc_digest();
        let statement = echo_statement(SOURCE, round, &digest);
        let sig = Some(rig.auths[signer as usize].sign_digest(&statement));
        feed_in(rig, round, signer, RbcMsg::Echo { digest, sig })
    }

    fn feed_echo(rig: &mut Rig, signer: u32) -> Queued {
        echo_in(rig, ROUND, signer)
    }

    /// Fires the pull-retry deadline of the instance in `round`.
    fn retry_in(rig: &mut Rig, round: Round) -> Queued {
        run(rig, |engine, ctx| engine.on_retry(round, SOURCE, ctx))
    }

    /// `(echoes counted, the first digest's share fold)` for the instance
    /// under test; a dropped cold record holds no fold.
    fn echo_state(rig: &mut Rig) -> (usize, Option<Signature>) {
        let inst = rig.engine.instance(ROUND, SOURCE);
        (
            inst.echo_tallies().map(|set| usize::from(set.total)).sum(),
            inst.kept.cold.as_ref().map(|cold| cold.shares),
        )
    }

    /// The fold of `signers`' shares of the instance under test.
    fn fold_of(rig: &Rig, signers: &[usize]) -> Signature {
        let statement = echo_statement(SOURCE, ROUND, &payload().rbc_digest());
        let pairs: Vec<_> = signers
            .iter()
            .map(|&i| (i, rig.auths[i].sign_digest(&statement)))
            .collect();
        AggregateSignature::aggregate(N, &pairs).fold
    }

    /// The certificate among what a call queued, if it sent one.
    fn sent_cert(fx: &Queued) -> Option<Arc<AggregateSignature>> {
        fx.out.iter().find_map(|(_, p)| match &p.msg {
            RbcMsg::EchoCert { cert, .. } => Some(Arc::clone(cert)),
            _ => None,
        })
    }

    /// Whether the instance under test has a [`Pulls`] record and a
    /// [`Spill`] box, if it has a cold record at all.
    fn boxes(rig: &Rig) -> Option<(bool, bool)> {
        let inst = rig.engine.slots.get(ROUND, SOURCE).expect("instance");
        let cold = inst.cold.as_ref()?;
        Some((cold.pulls.is_some(), cold.spill.is_some()))
    }

    /// Delivers the instance under test at party 1: the VAL and a quorum of
    /// echoes, this party's own among them.
    fn delivered_rig() -> Rig {
        let mut r = rig(1);
        feed(&mut r, 0, RbcMsg::Val(payload()));
        for signer in [0, 2, 1] {
            feed_echo(&mut r, signer);
        }
        assert!(r.engine.delivered(ROUND, SOURCE));
        r
    }

    /// The profiler's switch is process-wide: one measurement at a time.
    static PROFILER: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[global_allocator]
    static ALLOC: clanbft_profiler::CountingAlloc = clanbft_profiler::CountingAlloc;

    /// Allocations this thread made inside `body`, the profiler's own
    /// bookkeeping for the window included, and what `body` returned.
    fn allocations_in<T>(body: impl FnOnce() -> T) -> (u64, T) {
        clanbft_profiler::reset();
        clanbft_profiler::enable();
        let out = {
            let _window = clanbft_profiler::scope("window");
            body()
        };
        let report = clanbft_profiler::take_report();
        clanbft_profiler::disable();
        (report.scopes[0].alloc_count, out)
    }

    #[test]
    fn the_payload_is_read_from_delivery_until_the_round_is_pruned() {
        // A clan member: custody of the VAL is not delivery.
        let mut r = rig(1);
        feed(&mut r, 0, RbcMsg::Val(payload()));
        feed_echo(&mut r, 0);
        feed_echo(&mut r, 2);
        assert!(
            r.engine.payload(ROUND, SOURCE).is_none(),
            "held, not delivered"
        );
        feed_echo(&mut r, 1);
        let delivered = r.engine.payload(ROUND, SOURCE).expect("delivered");
        assert_eq!(delivered.data(), payload().data());
        r.engine.prune_below(ROUND);
        assert!(
            r.engine.payload(ROUND, SOURCE).is_some(),
            "the round is kept"
        );
        r.engine.prune_below(Round(ROUND.0 + 1));
        assert!(r.engine.payload(ROUND, SOURCE).is_none(), "pruned");

        // Party 3, outside the source's clan, delivers the meta view and
        // reads no payload.
        let clan = vec![PartyId(0), PartyId(1), PartyId(2)];
        let mut r = rig_on(ClanTopology::single_clan(TribeParams::new(N), clan), 3);
        feed(&mut r, 0, RbcMsg::ValMeta(payload().meta()));
        for signer in [0, 1, 2] {
            feed_echo(&mut r, signer);
        }
        assert!(r.engine.delivered(ROUND, SOURCE));
        assert!(r.engine.meta_of(ROUND, SOURCE).is_some());
        assert!(r.engine.payload(ROUND, SOURCE).is_none());
    }

    #[test]
    fn a_benign_instance_neither_pulls_nor_spills() {
        let mut r = delivered_rig();
        feed_echo(&mut r, 3);
        assert_eq!(boxes(&r), None, "delivery drops the cold record");

        // A second digest is what opens the spill box, and all it opens.
        let digest = BytesPayload::new(vec![0x18; 128]).rbc_digest();
        let statement = echo_statement(SOURCE, ROUND, &digest);
        let sig = Some(r.auths[2].sign_digest(&statement));
        feed(&mut r, 2, RbcMsg::Echo { digest, sig });
        assert_eq!(boxes(&r), Some((false, true)));
    }

    #[test]
    fn delivery_keeps_the_view_and_drops_the_cold_record_unless_a_box_is_open() {
        let r = delivered_rig();
        let inst = r.engine.slots.get(ROUND, SOURCE).expect("instance");
        assert!(inst.cold.is_none());
        assert!(matches!(inst.delivered, Some(View::Full(_))));
        assert_eq!(r.engine.buffer_stats().cold_records, 0);
        let meta = r.engine.meta_of(ROUND, SOURCE).expect("the payload's meta");
        assert_eq!(meta, (payload().meta(), payload().rbc_digest()));

        // A party that pulled keeps the record for its Pulls box, and what
        // it delivered is out of the record's custody.
        let mut r = rig(3);
        certify_told(&mut r, ROUND);
        retry_in(&mut r, ROUND);
        feed(&mut r, 0, RbcMsg::PullResp(payload()));
        assert!(r.engine.delivered(ROUND, SOURCE));
        assert_eq!(boxes(&r), Some((true, false)));
        assert_eq!(r.engine.buffer_stats().cold_records, 1);
        let inst = r.engine.slots.get(ROUND, SOURCE).expect("instance");
        assert!(inst.held(Which::Full).is_some_and(|h| h.view.is_none()));
    }

    #[test]
    fn a_late_identical_val_is_a_duplicate_that_sends_and_allocates_nothing() {
        let _guard = PROFILER.lock().unwrap_or_else(|e| e.into_inner());
        let mut r = delivered_rig();
        // Both counters the two windows tick exist before they open.
        feed_echo(&mut r, 2);
        let refused = || RbcMsg::Pull {
            digest: Digest::ZERO,
        };
        feed_in(&mut r, Round(u64::MAX), 2, refused());
        let dup = r.rec.counter(counters::REJECTED_DUPLICATE);

        let msg = refused();
        let (floor, _) = allocations_in(|| feed_in(&mut r, Round(u64::MAX), 2, msg));
        let val = RbcMsg::Val(payload());
        let (count, fx) = allocations_in(|| feed(&mut r, 0, val));
        assert_eq!(count - floor, 0, "allocations");
        assert!(fx.out.is_empty() && fx.timers.is_empty() && fx.events.is_empty());
        assert_eq!(r.rec.counter(counters::REJECTED_DUPLICATE), dup + 1);
        assert_eq!(boxes(&r), None);
    }

    #[test]
    fn a_late_conflicting_direct_val_records_one_equivocation() {
        let mut r = delivered_rig();
        let evidence = |fx: &Queued| {
            let ev = fx.events.iter().filter_map(|e| match e {
                RbcEvent::Evidence(ev) => Some(*ev),
                _ => None,
            });
            ev.collect::<Vec<_>>()
        };
        let other = || RbcMsg::Val(BytesPayload::new(vec![0x18; 128]));
        let fx = feed(&mut r, 0, other());
        let want = Evidence::EquivocatingSource {
            round: ROUND,
            source: SOURCE,
            first: payload().rbc_digest(),
            second: BytesPayload::new(vec![0x18; 128]).rbc_digest(),
        };
        assert_eq!(evidence(&fx), [want]);
        assert!(fx.out.is_empty());
        // The record is kept for its evidence flag: a second conflict is
        // counted, not recorded again.
        let fx = feed(&mut r, 0, other());
        assert!(evidence(&fx).is_empty() && fx.out.is_empty());
        assert_eq!(r.rec.counter(counters::REJECTED_EQUIVOCATION), 2);
        assert_eq!(boxes(&r), Some((false, false)));
    }

    #[test]
    fn a_pull_after_delivery_is_answered_from_the_kept_view_once_per_peer_and_view() {
        let mut r = delivered_rig();
        let digest = payload().rbc_digest();
        let answer = |r: &mut Rig, from, msg| {
            let fx = feed(r, from, msg);
            fx.out
                .into_iter()
                .map(|(to, p)| (to.0, p.msg))
                .collect::<Vec<_>>()
        };
        let full = answer(&mut r, 2, RbcMsg::Pull { digest });
        assert!(matches!(&full[..], [(2, RbcMsg::PullResp(p))] if p.rbc_digest() == digest));
        assert_eq!(boxes(&r), Some((true, false)), "serving creates the record");
        assert!(answer(&mut r, 2, RbcMsg::Pull { digest }).is_empty());
        // The payload answers for its meta view.
        let meta = answer(&mut r, 2, RbcMsg::PullMeta { digest });
        assert!(matches!(&meta[..], [(2, RbcMsg::MetaResp(m))] if *m == payload().meta()));
        assert!(answer(&mut r, 2, RbcMsg::PullMeta { digest }).is_empty());
        assert_eq!(answer(&mut r, 3, RbcMsg::Pull { digest }).len(), 1);
        // Another digest is not served.
        let other = Digest::of(b"other");
        assert!(answer(&mut r, 0, RbcMsg::Pull { digest: other }).is_empty());
        assert_eq!(r.rec.counter(counters::REJECTED_DUPLICATE), 2);
    }

    #[test]
    fn a_served_peer_pulling_another_digest_gets_nothing_and_counts_nothing() {
        let mut r = delivered_rig();
        let digest = payload().rbc_digest();
        assert_eq!(feed(&mut r, 2, RbcMsg::Pull { digest }).out.len(), 1);
        assert_eq!(feed(&mut r, 2, RbcMsg::PullMeta { digest }).out.len(), 1);
        let counted = r.rec.counters();
        let other = Digest::of(b"other");
        for pull in [
            RbcMsg::Pull { digest: other },
            RbcMsg::PullMeta { digest: other },
        ] {
            let fx = feed(&mut r, 2, pull);
            assert!(fx.out.is_empty() && fx.timers.is_empty() && fx.events.is_empty());
        }
        assert_eq!(r.rec.counters(), counted);
    }

    #[test]
    fn an_echo_quorum_after_certification_by_readies_pulls_nothing() {
        // Signature-free: party 3 holds the VAL and certifies on three
        // READYs, before its own echo quorum, which then sends nothing.
        let mut r = rig(3);
        r.engine = TribeRbc::signature_free(r.engine.config().clone());
        let digest = payload().rbc_digest();
        feed(&mut r, 0, RbcMsg::Val(payload()));
        for from in 0..3 {
            feed(&mut r, from, RbcMsg::Ready { digest });
        }
        assert!(r.engine.delivered(ROUND, SOURCE));
        for from in 0..3 {
            let fx = feed(&mut r, from, RbcMsg::Echo { digest, sig: None });
            assert!(fx.out.is_empty() && fx.timers.is_empty(), "echo {from}");
        }
        let quorum = |e: &clanbft_telemetry::Stamped| {
            matches!(
                e.event,
                Event::Rbc {
                    phase: RbcPhase::EchoQuorum,
                    ..
                }
            )
        };
        assert!(r.rec.events().iter().any(quorum), "the quorum was reached");
    }

    #[test]
    fn a_retry_after_delivery_allocates_nothing() {
        let _guard = PROFILER.lock().unwrap_or_else(|e| e.into_inner());
        let mut r = delivered_rig();
        let (floor, _) = allocations_in(|| retry_in(&mut r, Round(9)));
        let (count, fx) = allocations_in(|| retry_in(&mut r, ROUND));
        assert_eq!(count - floor, 0, "allocations");
        assert!(fx.out.is_empty() && fx.timers.is_empty());
        assert_eq!(boxes(&r), None);
    }

    #[test]
    fn serving_a_pull_creates_the_pulls_record_and_answers_once_per_peer_and_view() {
        let mut r = rig(1);
        let digest = payload().rbc_digest();
        // A pull that races ahead of the payload is not answered and burns
        // nothing: the peer keeps its one answer.
        assert!(feed(&mut r, 2, RbcMsg::Pull { digest }).out.is_empty());
        feed(&mut r, 0, RbcMsg::Val(payload()));
        assert_eq!(boxes(&r), Some((false, false)));

        let answers = |r: &mut Rig, from, msg| feed(r, from, msg).out.len();
        assert_eq!(answers(&mut r, 2, RbcMsg::Pull { digest }), 1);
        assert_eq!(boxes(&r), Some((true, false)), "serving creates the record");
        assert_eq!(answers(&mut r, 2, RbcMsg::Pull { digest }), 0);
        assert_eq!(answers(&mut r, 2, RbcMsg::PullMeta { digest }), 1);
        assert_eq!(answers(&mut r, 2, RbcMsg::PullMeta { digest }), 0);
        assert_eq!(answers(&mut r, 3, RbcMsg::Pull { digest }), 1);
        assert_eq!(r.rec.counter(counters::REJECTED_DUPLICATE), 2);
        assert_eq!(r.engine.buffer_stats().pending_pulls, 0);
    }

    #[test]
    fn a_pull_lives_in_its_record_and_is_pending_until_delivery() {
        // Party 3 counts one echo, from 1, and certifies through a
        // certificate; the source's own echo never reached it, so nothing is
        // on its way and it asks f_c + 1 = 2 peers at once, the echoer first.
        let mut r = rig(3);
        feed_echo(&mut r, 1);
        let digest = payload().rbc_digest();
        let statement = echo_statement(SOURCE, ROUND, &digest);
        let shares: Vec<_> = (0..3)
            .map(|i| (i, r.auths[i].sign_digest(&statement)))
            .collect();
        let cert = Arc::new(AggregateSignature::aggregate(N, &shares));
        let fx = feed(&mut r, 2, RbcMsg::EchoCert { digest, cert });
        let asked = fx.pulls();
        assert_eq!(asked, [PartyId(1), PartyId(0)]);
        assert_eq!(fx.timers.len(), 1);
        assert_eq!(boxes(&r), Some((true, false)));
        let inst = r.engine.slots.get(ROUND, SOURCE).expect("instance");
        let pulls = inst.cold.as_ref().and_then(|c| c.pulls.as_ref()).unwrap();
        assert_eq!(pulls.attempts, 0);
        assert!(pulls.retry_armed && asked.iter().all(|p| pulls.asked.contains(*p)));
        assert_eq!(r.engine.buffer_stats().pending_pulls, 1);

        feed(&mut r, 1, RbcMsg::PullResp(payload()));
        assert!(r.engine.delivered(ROUND, SOURCE));
        assert_eq!(r.engine.buffer_stats().pending_pulls, 0);
    }

    /// Party 3 counts the source's echo and two more and certifies without
    /// the payload; returns what the certifying echo queued.
    fn certify_told(r: &mut Rig, round: Round) -> Queued {
        echo_in(r, round, 0);
        echo_in(r, round, 1);
        let fx = echo_in(r, round, 2);
        assert!(fx
            .events
            .iter()
            .any(|e| matches!(e, RbcEvent::Certified { .. })));
        fx
    }

    #[test]
    fn the_sources_echo_defers_the_pull_to_one_deadline() {
        // The source echoed, so its VAL is on the wire: no pull, one
        // deadline armed, and the instance counts as pending.
        let mut r = rig(3);
        let fx = certify_told(&mut r, ROUND);
        assert!(fx.pulls().is_empty());
        assert_eq!(fx.timers.len(), 1);
        assert_eq!(
            fx.timers[0],
            (r.engine.cfg.pull_retry, retry_token(ROUND, SOURCE))
        );
        assert_eq!(r.engine.buffer_stats().pending_pulls, 1);

        // The VAL lands before the deadline and delivers; the expiry then
        // sends nothing, re-arms nothing and counts no retry.
        feed(&mut r, 0, RbcMsg::Val(payload()));
        assert!(r.engine.delivered(ROUND, SOURCE));
        let fx = retry_in(&mut r, ROUND);
        assert!(fx.out.is_empty() && fx.timers.is_empty());
        assert_eq!(r.rec.counter(counters::PULL_RETRIES), 0);
        assert!(!r.engine.struck.contains(SOURCE));
    }

    #[test]
    fn a_deadline_passed_without_the_view_strikes_the_source() {
        // The expiry asks f_c + 1 = 2 peers, echoers first, and strikes the
        // source ...
        let mut r = rig(3);
        certify_told(&mut r, ROUND);
        let fx = retry_in(&mut r, ROUND);
        assert_eq!(fx.pulls(), [PartyId(0), PartyId(1)]);
        assert_eq!(r.rec.counter(counters::PULL_RETRIES), 1);
        assert!(r.engine.struck.contains(SOURCE));
        // ... so its next instance pulls at once, echo or not.
        let next = Round(ROUND.0 + 1);
        let fx = certify_told(&mut r, next);
        assert_eq!(fx.pulls(), [PartyId(0), PartyId(1)]);
        assert_eq!(fx.timers.len(), 1);
    }

    #[test]
    fn a_conflicting_direct_val_pulls_at_once() {
        // The source showed party 3 another payload, then echoed the one
        // the tribe certifies: what it says is on its way is not.
        let mut r = rig(3);
        feed(&mut r, 0, RbcMsg::Val(BytesPayload::new(vec![0x18; 128])));
        let fx = certify_told(&mut r, ROUND);
        assert_eq!(fx.pulls(), [PartyId(0), PartyId(1)]);
    }

    #[test]
    fn forming_the_certificate_releases_the_echo_shares() {
        let mut r = rig(1);
        feed(&mut r, 0, RbcMsg::Val(payload()));
        feed_echo(&mut r, 0);
        feed_echo(&mut r, 2);
        let held = Some(fold_of(&r, &[0, 2]));
        assert_eq!(echo_state(&mut r), (2, held), "shares fold until quorum");

        // Third echo: quorum of 3, the certificate is the tally's voters and
        // the fold.
        let fx = feed_echo(&mut r, 1);
        let cert = sent_cert(&fx).expect("certificate formed at quorum");
        let signers: Vec<usize> = cert.signers.iter().collect();
        assert_eq!(signers, [0, 1, 2], "the certificate names every share");
        assert_eq!(cert.fold, fold_of(&r, &[0, 1, 2]));
        let statement = echo_statement(SOURCE, ROUND, &payload().rbc_digest());
        assert!(cert.verify(r.auths[1].registry(), statement.as_bytes()));
        assert_eq!(
            echo_state(&mut r),
            (3, None),
            "the fold goes with the record that held it"
        );
        assert_eq!(boxes(&r), None);

        // A late echo is still counted, its share is not folded; a duplicate
        // of it is rejected and counted as before.
        feed_echo(&mut r, 3);
        assert_eq!(echo_state(&mut r), (4, None));
        let dup_before = r.rec.counter(counters::REJECTED_DUPLICATE);
        let fx = feed_echo(&mut r, 3);
        assert!(fx.out.is_empty() && fx.events.is_empty());
        assert_eq!(echo_state(&mut r), (4, None));
        assert_eq!(r.rec.counter(counters::REJECTED_DUPLICATE), dup_before + 1);
    }

    #[test]
    fn accepting_a_certificate_releases_the_shares_collected_so_far() {
        // The donor reaches quorum first; the party under test holds a fold
        // of two shares of its own when the donor's certificate arrives.
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
        assert_eq!(echo_state(&mut r), (2, Some(fold_of(&r, &[0, 3]))));
        let fx = feed(&mut r, 2, cert);
        assert!(
            fx.events
                .iter()
                .any(|e| matches!(e, RbcEvent::DeliverFull { .. })),
            "a valid certificate delivers"
        );
        assert_eq!(
            echo_state(&mut r),
            (2, None),
            "an accepted certificate frees the fold at delivery"
        );
        assert_eq!(boxes(&r), None);

        // Echoes past certification: counted, reaching quorum changes
        // nothing (the certificate was already forwarded), nothing folded.
        feed_echo(&mut r, 1);
        let fx = feed_echo(&mut r, 2);
        assert!(fx.out.is_empty() && fx.events.is_empty());
        assert_eq!(echo_state(&mut r), (4, None));
    }

    #[test]
    fn a_bad_share_is_dropped_on_arrival_and_the_certificate_verifies() {
        let mut r = rig(1);
        feed(&mut r, 0, RbcMsg::Val(payload()));
        feed_echo(&mut r, 0);
        // Party 2's echo carries its signature over another statement.
        let digest = payload().rbc_digest();
        let sig = Some(r.auths[2].sign_digest(&digest));
        let fx = feed(&mut r, 2, RbcMsg::Echo { digest, sig });
        assert!(fx.out.is_empty() && fx.events.is_empty());
        assert_eq!(r.rec.counter(counters::REJECTED_BAD_SIG), 1);
        assert_eq!(echo_state(&mut r), (1, Some(fold_of(&r, &[0]))));
        // Its valid echo still counts, and the quorum's certificate holds.
        feed_echo(&mut r, 2);
        let cert = sent_cert(&feed_echo(&mut r, 3)).expect("certificate formed at quorum");
        let statement = echo_statement(SOURCE, ROUND, &digest);
        assert!(cert.verify(r.auths[1].registry(), statement.as_bytes()));
        assert_eq!(cert.signers.iter().collect::<Vec<_>>(), [0, 2, 3]);
        assert_eq!(r.rec.counter(counters::REJECTED_BAD_SIG), 1);
    }

    #[test]
    fn a_certificate_with_a_bad_fold_is_rejected_whole_then_a_valid_one_certifies() {
        let mut r = rig(3);
        feed(&mut r, 0, RbcMsg::Val(payload()));
        let digest = payload().rbc_digest();
        let good = cert_of(&r, ROUND, SOURCE, N, digest);
        // Every party listed, but one contribution signs another statement:
        // the fold fails as a whole, quorum or not.
        let statement = echo_statement(SOURCE, ROUND, &digest);
        let mut shares: Vec<_> = (0..N)
            .map(|i| (i, r.auths[i].sign_digest(&statement)))
            .collect();
        shares[1].1 = r.auths[1].sign_digest(&digest);
        let cert = Arc::new(AggregateSignature::aggregate(N, &shares));
        let fx = feed(&mut r, 2, RbcMsg::EchoCert { digest, cert });
        assert!(fx.out.is_empty() && fx.events.is_empty());
        assert_eq!(r.rec.counter(counters::REJECTED_BAD_SIG), 1, "counted once");
        assert!(!r.engine.slots.is_certified(ROUND, SOURCE));
        // The next valid certificate certifies, delivers and is forwarded.
        let fx = feed(&mut r, 1, good);
        assert!(fx
            .events
            .iter()
            .any(|e| matches!(e, RbcEvent::DeliverFull { .. })));
        assert_eq!(sent_cert(&fx).map(|cert| cert.count()), Some(N));
        assert_eq!(r.rec.counter(counters::REJECTED_BAD_SIG), 1);
    }

    // --- settled rows -------------------------------------------------------

    fn payload_of(source: PartyId) -> BytesPayload {
        BytesPayload::new(vec![0x17 + source.0 as u8; 128])
    }

    /// Another payload claiming `source`'s instance.
    fn conflicting_of(source: PartyId) -> BytesPayload {
        BytesPayload::new(vec![0x80 + source.0 as u8; 128])
    }

    /// `signer`'s echo of `digest` in `(round, source)`'s instance, signed
    /// in the signed flavour.
    fn echo_of(
        rig: &Rig,
        round: Round,
        source: PartyId,
        signer: u32,
        digest: Digest,
    ) -> RbcMsg<BytesPayload> {
        let sig = matches!(rig.engine.flavour, Flavour::Signed { .. }).then(|| {
            let statement = echo_statement(source, round, &digest);
            rig.auths[signer as usize].sign_digest(&statement)
        });
        RbcMsg::Echo { digest, sig }
    }

    /// A certificate of `digest` in `(round, source)`'s instance signed by
    /// parties `0..signers`.
    fn cert_of(
        rig: &Rig,
        round: Round,
        source: PartyId,
        signers: usize,
        digest: Digest,
    ) -> RbcMsg<BytesPayload> {
        let statement = echo_statement(source, round, &digest);
        let shares: Vec<_> = (0..signers)
            .map(|i| (i, rig.auths[i].sign_digest(&statement)))
            .collect();
        let n = rig.engine.cfg.n();
        let cert = Arc::new(AggregateSignature::aggregate(n, &shares));
        RbcMsg::EchoCert { digest, cert }
    }

    /// Feeds `(round, source)`'s instance what settles it: the view this
    /// party is due straight from the source, every party's echo but
    /// `withheld`'s, and in the signature-free flavour every party's READY.
    /// Returns what each packet queued.
    fn settle(rig: &mut Rig, round: Round, source: PartyId, withheld: Option<u32>) -> Vec<Queued> {
        let n = rig.engine.cfg.n() as u32;
        let payload = payload_of(source);
        let digest = payload.rbc_digest();
        let view = match rig.engine.my_view(round, source) {
            Which::Full => RbcMsg::Val(payload),
            Which::Meta => RbcMsg::ValMeta(payload.meta()),
        };
        let mut packets = vec![(source.0, view)];
        for signer in (0..n).filter(|p| Some(*p) != withheld) {
            packets.push((signer, echo_of(rig, round, source, signer, digest)));
        }
        if matches!(rig.engine.flavour, Flavour::SignatureFree) {
            packets.extend((0..n).map(|from| (from, RbcMsg::Ready { digest })));
        }
        let feed = |(from, msg)| feed_of(rig, round, source, from, msg);
        packets.into_iter().map(feed).collect()
    }

    /// Party 1 of the 4, signed, once every source of `ROUND` has settled.
    fn settled_rig() -> Rig {
        let mut r = rig(1);
        for source in 0..N as u32 {
            settle(&mut r, ROUND, PartyId(source), None);
        }
        assert_eq!(r.engine.buffer_stats().settled_rows, 1);
        r
    }

    #[test]
    fn a_row_folds_once_its_last_instance_settles() {
        let mut r = rig(1);
        for source in 0..N as u32 - 1 {
            settle(&mut r, ROUND, PartyId(source), None);
        }
        // The last source's echoes but one: delivered, not settled.
        let last = PartyId(N as u32 - 1);
        settle(&mut r, ROUND, last, Some(2));
        assert!(r.engine.delivered(ROUND, last));
        assert_eq!(r.engine.buffer_stats().settled_rows, 0);
        let digest = payload_of(last).rbc_digest();
        let echo = echo_of(&r, ROUND, last, 2, digest);
        let fx = feed_of(&mut r, ROUND, last, 2, echo);
        assert!(fx.out.is_empty() && fx.events.is_empty());
        let stats = r.engine.buffer_stats();
        assert_eq!((stats.settled_rows, stats.instances), (1, N as u64));
        let row = r.engine.slots.rows.get(ROUND).expect("the row");
        assert!(row.folded() && row.votes.is_empty() && row.kept.len() == N);
        assert!((0..N as u32).all(|s| r.engine.slots.is_certified(ROUND, PartyId(s))));
    }

    #[test]
    fn late_duplicates_at_a_settled_row_allocate_and_send_nothing() {
        let _guard = PROFILER.lock().unwrap_or_else(|e| e.into_inner());
        let mut r = settled_rig();
        let digest = payload().rbc_digest();
        // The counter the duplicates tick exists before a window opens.
        feed_echo(&mut r, 2);
        let dup = r.rec.counter(counters::REJECTED_DUPLICATE);
        let refused = RbcMsg::Pull {
            digest: Digest::ZERO,
        };
        let (floor, _) = allocations_in(|| feed_in(&mut r, Round(u64::MAX), 2, refused));
        let late = [
            (3, echo_of(&r, ROUND, SOURCE, 3, digest)),
            (2, cert_of(&r, ROUND, SOURCE, N, digest)),
            (0, RbcMsg::Val(payload())),
        ];
        for (from, msg) in late {
            let (count, fx) = allocations_in(|| feed(&mut r, from, msg));
            assert_eq!(count - floor, 0, "allocations");
            assert!(fx.out.is_empty() && fx.timers.is_empty() && fx.events.is_empty());
        }
        // The echo and the VAL are duplicates; the certificate is dropped
        // before it is verified.
        assert_eq!(r.rec.counter(counters::REJECTED_DUPLICATE), dup + 2);
        assert_eq!(r.engine.buffer_stats().cold_records, 0);
    }

    #[test]
    fn a_conflicting_direct_val_at_a_settled_row_records_one_equivocation() {
        let mut r = settled_rig();
        let other = || RbcMsg::Val(conflicting_of(SOURCE));
        let fx = feed(&mut r, 0, other());
        let want = Evidence::EquivocatingSource {
            round: ROUND,
            source: SOURCE,
            first: payload().rbc_digest(),
            second: conflicting_of(SOURCE).rbc_digest(),
        };
        assert!(matches!(&fx.events[..], [RbcEvent::Evidence(ev)] if *ev == want));
        assert!(fx.out.is_empty());
        let fx = feed(&mut r, 0, other());
        assert!(fx.events.is_empty() && fx.out.is_empty());
        assert_eq!(r.rec.counter(counters::REJECTED_EQUIVOCATION), 2);
        // The evidence flag's cold record sits in the folded row.
        let stats = r.engine.buffer_stats();
        assert_eq!((stats.settled_rows, stats.cold_records), (1, 1));
    }

    #[test]
    fn a_settled_row_serves_a_pull_once_per_peer_and_view_and_reads_until_pruned() {
        let mut r = settled_rig();
        let digest = payload().rbc_digest();
        let dup = r.rec.counter(counters::REJECTED_DUPLICATE);
        let answers = |r: &mut Rig, from, msg| feed(r, from, msg).out.len();
        assert_eq!(answers(&mut r, 2, RbcMsg::Pull { digest }), 1);
        assert_eq!(answers(&mut r, 2, RbcMsg::Pull { digest }), 0);
        assert_eq!(answers(&mut r, 2, RbcMsg::PullMeta { digest }), 1);
        assert_eq!(answers(&mut r, 2, RbcMsg::PullMeta { digest }), 0);
        assert_eq!(answers(&mut r, 3, RbcMsg::Pull { digest }), 1);
        let other = Digest::of(b"other");
        assert_eq!(answers(&mut r, 3, RbcMsg::Pull { digest: other }), 0);
        assert_eq!(r.rec.counter(counters::REJECTED_DUPLICATE), dup + 2);
        let stats = r.engine.buffer_stats();
        assert_eq!((stats.settled_rows, stats.pull_records), (1, 1));

        for source in (0..N as u32).map(PartyId) {
            let want = payload_of(source);
            let got = r
                .engine
                .payload(ROUND, source)
                .expect("read through the fold");
            assert_eq!(got.data(), want.data());
            let meta = r.engine.meta_of(ROUND, source);
            assert_eq!(meta, Some((want.meta(), want.rbc_digest())));
        }
        r.engine.prune_below(ROUND);
        assert!(
            r.engine.payload(ROUND, SOURCE).is_some(),
            "the round is kept"
        );
        r.engine.prune_below(Round(ROUND.0 + 1));
        assert!(r.engine.payload(ROUND, SOURCE).is_none(), "pruned");
        assert!(r.engine.meta_of(ROUND, SOURCE).is_none());
        assert_eq!(r.engine.buffer_stats(), BufferStats::default());
    }

    /// One late packet for `(ROUND, s)`, or its retry deadline, drawn from
    /// `(kind, who, what)`.
    fn late_call(r: &mut Rig, s: PartyId, (kind, who, what): (u8, u8, u8)) -> Queued {
        let n = r.engine.cfg.n();
        let from = u32::from(who) % n as u32;
        let digests = [
            payload_of(s).rbc_digest(),
            conflicting_of(s).rbc_digest(),
            Digest::of(b"neither"),
        ];
        let digest = digests[usize::from(what) % 3];
        let view = match what & 8 {
            0 => payload_of(s),
            _ => conflicting_of(s),
        };
        // A VAL or ValMeta straight from the source, or from anyone.
        let sender = if what & 4 == 0 { s.0 } else { from };
        let msg = match kind % 11 {
            0..=2 => echo_of(r, ROUND, s, from, digest),
            3 => RbcMsg::Ready { digest },
            4 => return feed_of(r, ROUND, s, sender, RbcMsg::Val(view)),
            5 => return feed_of(r, ROUND, s, sender, RbcMsg::ValMeta(view.meta())),
            6 => RbcMsg::PullResp(view),
            7 => RbcMsg::MetaResp(view.meta()),
            8 if what & 32 == 0 => RbcMsg::Pull { digest },
            8 => RbcMsg::PullMeta { digest },
            9 => {
                let quorum = r.engine.cfg.topology.tribe().quorum();
                let signers = [quorum - 1, quorum, n][usize::from(what / 16) % 3];
                cert_of(r, ROUND, s, signers, digest)
            }
            _ => return run(r, |engine, ctx| engine.on_retry(ROUND, s, ctx)),
        };
        feed_of(r, ROUND, s, from, msg)
    }

    /// What a call to `(ROUND, s)` can be told apart by besides what it
    /// queued: the counters it ticked, the trace lines it wrote, the readers
    /// and the instance's share of the buffer statistics.
    fn observed(
        r: &Rig,
        s: PartyId,
        counters_before: &[(&'static str, u64)],
        traces_before: usize,
    ) -> String {
        let before: std::collections::BTreeMap<_, _> = counters_before.iter().copied().collect();
        let ticked: Vec<_> = r
            .rec
            .counters()
            .into_iter()
            .map(|(name, v)| (name, v - before.get(name).copied().unwrap_or(0)))
            .filter(|(_, delta)| *delta > 0)
            .collect();
        let traces = r.rec.events().split_off(traces_before);
        let mut stats = BufferStats::default();
        if let Some(row) = r.engine.slots.rows.get(ROUND) {
            row.count_into(s, &mut stats);
        }
        let e = &r.engine;
        let payload = e.payload(ROUND, s).map(BytesPayload::rbc_digest);
        format!(
            "{ticked:?} {traces:?} {stats:?} {} {payload:?} {:?}",
            e.delivered(ROUND, s),
            e.meta_of(ROUND, s)
        )
    }

    /// Two engines with the same history for `(ROUND, s)`: at the first
    /// every source of the round settles, so the row folds once `s` has; at
    /// the second one other source is never touched, so the row stays live.
    /// The same packets for `(ROUND, s)` — what settles it, an echo withheld
    /// at times, then late ones of every kind — queue the same sends,
    /// timers and events at both, tick the same counters, write the same
    /// trace lines, and leave the same readers and buffer statistics. n from
    /// 4 to 7, both flavours, this party in the source's clan or not.
    #[test]
    fn a_folded_row_answers_every_packet_as_the_live_row_would() {
        check_shrink(
            "a_folded_row_answers_every_packet_as_the_live_row_would",
            256,
            |g| {
                let late = g.vec(0, 48, |g| (g.u8(), g.u8(), g.u8()));
                (g.bool(), g.u8(), g.u8(), g.u8(), late)
            },
            |&(signed, shape, picks, withheld, ref late)| {
                let tribe = TribeParams::new(4 + usize::from(shape) % 4);
                let n = tribe.n();
                let topology = || match shape / 4 % 2 {
                    0 => ClanTopology::whole_tribe(tribe),
                    _ => {
                        let size = 1 + usize::from(shape / 8) % n;
                        let members =
                            (0..size).map(|k| PartyId(((usize::from(picks) + k) % n) as u32));
                        ClanTopology::single_clan(tribe, members.collect())
                    }
                };
                let me = u32::from(picks / 8) % n as u32;
                let s = PartyId(u32::from(picks / 64) % n as u32);
                let untouched =
                    PartyId((s.0 + 1 + u32::from(shape / 64) % (n as u32 - 1)) % n as u32);
                let withheld = (withheld % 4 == 0).then(|| u32::from(withheld / 4) % n as u32);

                let (mut folded, mut live) = (
                    rig_with(topology(), me, signed),
                    rig_with(topology(), me, signed),
                );
                for other in (0..n as u32).map(PartyId).filter(|p| *p != s) {
                    settle(&mut folded, ROUND, other, None);
                    if other != untouched {
                        settle(&mut live, ROUND, other, None);
                    }
                }
                let marks = |r: &Rig| (r.rec.counters(), r.rec.events().len());
                let (folded_marks, live_marks) = (marks(&folded), marks(&live));
                let compare = |at: usize, a: Queued, b: Queued, folded: &Rig, live: &Rig| {
                    let queued = |q: &Queued| format!("{:?} {:?} {:?}", q.out, q.timers, q.events);
                    let (a, b) = (queued(&a), queued(&b));
                    tk_assert!(a == b, "packet {at}: folded {a}, live {b}");
                    let seen_folded = observed(folded, s, &folded_marks.0, folded_marks.1);
                    let seen_live = observed(live, s, &live_marks.0, live_marks.1);
                    tk_assert!(
                        seen_folded == seen_live,
                        "packet {at}: folded {seen_folded}, live {seen_live}"
                    );
                    Ok(())
                };
                let history = settle(&mut folded, ROUND, s, withheld)
                    .into_iter()
                    .zip(settle(&mut live, ROUND, s, withheld));
                for (at, (a, b)) in history.enumerate() {
                    compare(at, a, b, &folded, &live)?;
                }
                // Nothing withheld, the row has folded before any late packet.
                let settled = |r: &Rig| r.engine.buffer_stats().settled_rows;
                tk_assert!(
                    withheld.is_some() || settled(&folded) == 1,
                    "the row did not fold"
                );
                for (at, &op) in late.iter().enumerate() {
                    let (a, b) = (late_call(&mut folded, s, op), late_call(&mut live, s, op));
                    compare(at, a, b, &folded, &live)?;
                }
                // The live row's instance settled iff the other row folded.
                let row = live.engine.slots.rows.get(ROUND);
                let Some(row) = row.filter(|row| !row.folded()) else {
                    return Err("the live row folded".into());
                };
                let (votes, kept) = (&row.votes[s.idx()], &row.kept[s.idx()]);
                tk_assert_eq!(settled(&folded), u64::from(votes.settled(kept, n)));
                Ok(())
            },
        );
    }
}
