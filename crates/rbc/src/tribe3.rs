//! Three-round tribe-assisted reliable broadcast (paper Fig. 2).
//!
//! Signature-free, after Bracha: VAL → ECHO → READY. The sender pushes the
//! full payload to its clan and the meta view to everyone else; a party
//! sends READY after `2f+1` ECHOes for a digest, of which at least `f_c+1`
//! must come from the sender's clan (guaranteeing a retrievable payload);
//! READY amplification at `f+1`; delivery at `2f+1` READYs. With the clan
//! set to the whole tribe this is exactly Bracha's RBC.

use crate::engine::{Core, Dest, Effects, EngineConfig, RbcMsg, RbcPacket};
use crate::payload::TribePayload;
use clanbft_crypto::Digest;
use clanbft_telemetry::{Event, RbcPhase};
use clanbft_types::{PartyId, Round};

/// The 3-round tribe-assisted RBC engine (all instances for one party).
pub struct TribeRbc3<P: TribePayload> {
    core: Core<P>,
}

impl<P: TribePayload> TribeRbc3<P> {
    /// Creates the engine for one party.
    pub fn new(cfg: EngineConfig) -> TribeRbc3<P> {
        TribeRbc3 {
            core: Core::new(cfg),
        }
    }

    /// The engine configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.core.cfg
    }

    /// `r_bcast`: disseminates `payload` as this party's broadcast for
    /// `round`. Full payload goes to the sender's clan (including the
    /// sender itself, via loopback), the meta view to everyone else.
    pub fn broadcast(&mut self, round: Round, payload: P, fx: &mut Effects<P>) {
        self.core.note_round(round);
        let me = self.core.cfg.me;
        let topo = self.core.cfg.topology_at(round).clone();
        let clan = topo.clan_for_sender(me);
        let meta = payload.meta();
        fx.charge(self.core.cfg.cost.hash(payload.wire_bytes()));
        self.core.cfg.telemetry.event(
            fx.stamp(),
            me,
            Event::Rbc {
                phase: RbcPhase::ValSent,
                round,
                source: me,
            },
        );
        for p in topo.tribe().parties() {
            if clan.contains(p) {
                fx.send(p, me, round, RbcMsg::Val(payload.clone()));
            } else {
                fx.send(p, me, round, RbcMsg::ValMeta(meta.clone()));
            }
        }
    }

    /// Handles one received packet.
    pub fn handle(&mut self, from: PartyId, packet: RbcPacket<P>, fx: &mut Effects<P>) {
        let RbcPacket { source, round, msg } = packet;
        // Bounded buffering: stale (below prune horizon) and far-future
        // rounds, and sources outside the tribe, are rejected before any
        // state is allocated.
        if !self.core.admit(round, source) {
            return;
        }
        match msg {
            RbcMsg::Val(payload) => {
                // Only the designated sender pushes VAL.
                if from != source {
                    return;
                }
                if let Some(d) = self.core.accept_payload(round, source, payload, true, fx) {
                    self.maybe_echo(round, source, d, fx);
                }
                self.core.deliver_if_ready(round, source, fx);
            }
            RbcMsg::ValMeta(meta) => {
                if from != source {
                    return;
                }
                // A clan member must not echo on the meta view alone: its
                // echo asserts custody of the full payload (that is what
                // makes f_c+1 clan echoes imply retrievability).
                let me = self.core.cfg.me;
                let full_receiver = self.core.cfg.topology_at(round).receives_full(me, source);
                if let Some(d) = self.core.accept_meta(round, source, meta, true, fx) {
                    if !full_receiver {
                        self.maybe_echo(round, source, d, fx);
                    }
                }
                self.core.deliver_if_ready(round, source, fx);
            }
            RbcMsg::Echo { digest, .. } => {
                if let Some((total, clan)) =
                    self.core.note_echo(round, source, from, digest, None, fx)
                {
                    if self.core.echo_threshold_met(round, source, total, clan) {
                        self.core.on_echo_quorum(round, source, digest, fx);
                        self.maybe_ready(round, source, digest, fx);
                    }
                }
            }
            RbcMsg::Ready { digest } => {
                let n = self.core.cfg.n();
                let quorum = self.core.cfg.quorum();
                let small = self.core.cfg.small_quorum();
                let tel = self.core.cfg.telemetry.clone();
                let count = {
                    let inst = self.core.instance(round, source);
                    // Same distinct-digest cap as echoes: a Byzantine peer
                    // cannot allocate unbounded per-digest ready sets.
                    if inst.readies.iter().all(|s| s.digest != digest)
                        && inst.readies.len() >= crate::engine::MAX_DIGESTS_PER_INSTANCE
                    {
                        tel.add(clanbft_telemetry::counters::REJECTED_BUFFER_FULL, 1);
                        return;
                    }
                    let set = inst.ready_set(n, digest);
                    if !set.all.set(from.idx()) {
                        tel.add(clanbft_telemetry::counters::REJECTED_DUPLICATE, 1);
                        return;
                    }
                    set.all.count()
                };
                // Amplification: f+1 READYs convince us even without the
                // echo quorum.
                if count >= small {
                    self.maybe_ready(round, source, digest, fx);
                }
                if count >= quorum {
                    self.core.certify(round, source, digest, fx);
                }
            }
            RbcMsg::Pull { digest } => self.core.handle_pull(round, source, from, digest, fx),
            RbcMsg::PullResp(payload) => self.core.handle_pull_resp(round, source, payload, fx),
            RbcMsg::PullMeta { digest } => {
                self.core.handle_pull_meta(round, source, from, digest, fx)
            }
            RbcMsg::MetaResp(meta) => self.core.handle_meta_resp(round, source, meta, fx),
            RbcMsg::EchoCert { .. } => {
                // Not part of the 3-round protocol; ignore.
            }
        }
    }

    /// The meta view (vertex) held for `(round, source)`, if any, with the
    /// digest computed when it was accepted — lets the consensus layer act
    /// on certification before the full payload lands, without rehashing.
    pub fn meta_of(&self, round: Round, source: PartyId) -> Option<(P::Meta, Digest)> {
        self.core.meta_of(round, source)
    }

    /// The full payload held for `(round, source)`, if any.
    pub fn payload_of(&self, round: Round, source: PartyId) -> Option<P> {
        self.core.payload_of(round, source)
    }

    /// Garbage-collects instances below `round`.
    pub fn prune_below(&mut self, round: Round) {
        self.core.prune_below(round);
    }

    /// True iff this party has delivered for `(round, source)`.
    pub fn delivered(&self, round: Round, source: PartyId) -> bool {
        self.core
            .existing(round, source)
            .is_some_and(|inst| inst.delivered)
    }

    /// Widens the bounded-buffer admission window: the consensus layer
    /// calls this when it legitimately advances into `round`.
    pub fn note_round(&mut self, round: Round) {
        self.core.note_round(round);
    }

    /// Drains the Byzantine evidence recorded so far.
    pub fn take_evidence(&mut self) -> Vec<clanbft_types::Evidence> {
        self.core.take_evidence()
    }

    /// Live occupancy of the bounded buffers (gauge-sampling food).
    pub fn buffer_stats(&self) -> crate::engine::BufferStats {
        self.core.buffer_stats()
    }

    /// Pull-retry deadline for `(round, source)` expired (see
    /// [`crate::engine::parse_retry_token`]).
    pub fn on_retry(&mut self, round: Round, source: PartyId, fx: &mut Effects<P>) {
        self.core.on_retry(round, source, fx);
    }

    fn maybe_echo(&mut self, round: Round, source: PartyId, digest: Digest, fx: &mut Effects<P>) {
        let inst = self.core.instance(round, source);
        if inst.echoed.is_some() {
            return;
        }
        inst.echoed = Some(digest);
        self.core.cfg.telemetry.event(
            fx.stamp(),
            self.core.cfg.me,
            Event::Rbc {
                phase: RbcPhase::Echoed,
                round,
                source,
            },
        );
        fx.multicast(Dest::All, source, round, RbcMsg::Echo { digest, sig: None });
    }

    fn maybe_ready(&mut self, round: Round, source: PartyId, digest: Digest, fx: &mut Effects<P>) {
        let inst = self.core.instance(round, source);
        if inst.ready_sent.is_some() {
            return;
        }
        inst.ready_sent = Some(digest);
        fx.multicast(Dest::All, source, round, RbcMsg::Ready { digest });
    }
}
