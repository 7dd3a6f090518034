//! Two-round tribe-assisted reliable broadcast (paper Fig. 3).
//!
//! Signed, after Abraham et al.'s good-case-optimal RBC: VAL → signed ECHO →
//! echo certificate `EC_r(m)`. A party that collects `2f+1` signed ECHOes
//! (with `f_c+1` from the sender's clan) multicasts the certificate and
//! delivers; a party that *receives* a valid certificate forwards it once
//! and delivers. The forward is required for agreement when the certificate
//! originates from a Byzantine party that sent it selectively — the paper's
//! proof implicitly assumes it.
//!
//! Per the paper's implementation (§7), echo signatures are aggregated
//! without upfront verification; a receiver verifies the aggregate and, on
//! failure, identifies and excludes culprits, accepting the certificate if
//! the surviving contributions still meet both thresholds.

use crate::engine::{echo_statement, Core, Dest, Effects, EngineConfig, RbcMsg, RbcPacket};
use crate::payload::TribePayload;
use clanbft_crypto::multisig::AggregateVerdict;
use clanbft_crypto::{AggregateSignature, Authenticator, Digest};
use clanbft_telemetry::{Event, RbcPhase};
use clanbft_types::{PartyId, Round};
use std::sync::Arc;

/// The 2-round tribe-assisted RBC engine (all instances for one party).
pub struct TribeRbc2<P: TribePayload> {
    core: Core<P>,
    auth: Arc<Authenticator>,
    /// When false, certificate signature bytes are not actually checked
    /// (their CPU cost is still charged). Large-scale simulations flip this
    /// off for tractability; correctness tests keep it on.
    verify_sigs: bool,
}

impl<P: TribePayload> TribeRbc2<P> {
    /// Creates the engine for one party.
    pub fn new(cfg: EngineConfig, auth: Arc<Authenticator>) -> TribeRbc2<P> {
        TribeRbc2 {
            core: Core::new(cfg),
            auth,
            verify_sigs: true,
        }
    }

    /// Disables real signature verification (cost-model charges remain).
    pub fn with_sig_verification(mut self, on: bool) -> TribeRbc2<P> {
        self.verify_sigs = on;
        self
    }

    /// The engine configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.core.cfg
    }

    /// Installs an epoch-rotated clan structure effective from
    /// `from_round` (see [`EngineConfig::install_epoch`]). In-flight
    /// instances of earlier rounds keep their original topology.
    pub fn install_epoch(
        &mut self,
        from_round: Round,
        topology: Arc<crate::topology::ClanTopology>,
    ) {
        self.core.cfg.install_epoch(from_round, topology);
    }

    /// `r_bcast`: disseminates `payload` as this party's broadcast for
    /// `round`.
    pub fn broadcast(&mut self, round: Round, payload: P, fx: &mut Effects<P>) {
        let _prof = clanbft_profiler::scope("rbc.broadcast");
        self.core.note_round(round);
        let me = self.core.cfg.me;
        let topo = self.core.cfg.topology_at(round).clone();
        let clan = topo.clan_for_sender(me);
        let meta = payload.meta();
        fx.charge(self.core.cfg.cost.hash(payload.wire_bytes()));
        fx.charge(self.core.cfg.cost.sign());
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
        let _prof = clanbft_profiler::scope("rbc.handle");
        let RbcPacket { source, round, msg } = packet;
        // Bounded buffering: stale (below prune horizon) and far-future
        // rounds, and sources outside the tribe, are rejected before any
        // state is allocated.
        if !self.core.admit(round, source) {
            return;
        }
        match msg {
            RbcMsg::Val(payload) => {
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
            RbcMsg::Echo { digest, sig } => {
                let sig = match sig {
                    Some(s) => *s,
                    None => return, // unsigned echoes are not acceptable here
                };
                // Aggregate without upfront verification (paper §7).
                fx.charge(self.core.cfg.cost.aggregate(1));
                if let Some((total, clan)) =
                    self.core
                        .note_echo(round, source, from, digest, Some(sig), fx)
                {
                    if self.core.echo_threshold_met(round, source, total, clan) {
                        self.form_and_send_cert(round, source, digest, fx);
                    }
                }
            }
            RbcMsg::EchoCert { digest, cert } => {
                // Duplicate certificates for an already-certified instance
                // are dropped before any verification cost is paid.
                if self.core.instance(round, source).certified.is_some() {
                    return;
                }
                if self.validate_cert(source, round, digest, &cert, fx) {
                    self.forward_cert_once(round, source, digest, cert, fx);
                    self.core.on_echo_quorum(round, source, digest, fx);
                    self.core.certify(round, source, digest, fx);
                }
            }
            RbcMsg::Pull { digest } => self.core.handle_pull(round, source, from, digest, fx),
            RbcMsg::PullResp(payload) => self.core.handle_pull_resp(round, source, payload, fx),
            RbcMsg::PullMeta { digest } => {
                self.core.handle_pull_meta(round, source, from, digest, fx)
            }
            RbcMsg::MetaResp(meta) => self.core.handle_meta_resp(round, source, meta, fx),
            RbcMsg::Ready { .. } => {
                // Not part of the 2-round protocol; ignore.
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
        fx.charge(self.core.cfg.cost.sign());
        self.core.cfg.telemetry.event(
            fx.stamp(),
            self.core.cfg.me,
            Event::Rbc {
                phase: RbcPhase::Echoed,
                round,
                source,
            },
        );
        let statement = echo_statement(source, round, &digest);
        let sig = Some(Arc::new(self.auth.sign_digest(&statement)));
        fx.multicast(Dest::All, source, round, RbcMsg::Echo { digest, sig });
    }

    /// Assembles `EC_r(m)` from collected echoes, multicasts it, and
    /// delivers locally.
    fn form_and_send_cert(
        &mut self,
        round: Round,
        source: PartyId,
        digest: Digest,
        fx: &mut Effects<P>,
    ) {
        let n = self.core.cfg.n();
        let inst = self.core.instance(round, source);
        if inst.cert_sent {
            return;
        }
        inst.cert_sent = true;
        // The certificate takes the shares: nothing reads them afterwards.
        let shares = inst
            .echoes
            .iter_mut()
            .find(|set| set.digest == digest)
            .map(|set| std::mem::take(&mut set.sigs))
            .unwrap_or_default();
        let cert = Arc::new(AggregateSignature::aggregate(n, &shares));
        fx.multicast(
            Dest::Others,
            source,
            round,
            RbcMsg::EchoCert { digest, cert },
        );
        self.core.on_echo_quorum(round, source, digest, fx);
        self.core.certify(round, source, digest, fx);
    }

    /// Verifies a received certificate: thresholds on the (culprit-pruned)
    /// signer set, then the aggregate signature.
    fn validate_cert(
        &mut self,
        source: PartyId,
        round: Round,
        digest: Digest,
        cert: &AggregateSignature,
        fx: &mut Effects<P>,
    ) -> bool {
        let quorum = self.core.cfg.quorum();
        let clan = self
            .core
            .cfg
            .topology_at(round)
            .clan_for_sender(source)
            .clone();
        fx.charge(self.core.cfg.cost.agg_verify(cert.count()));
        let statement = echo_statement(source, round, &digest);
        let culprits: Vec<usize> = if self.verify_sigs {
            match cert.verify(self.auth.registry(), statement.as_bytes()) {
                AggregateVerdict::Valid => Vec::new(),
                AggregateVerdict::Invalid(bad) => {
                    // Blame path: individual verification to identify
                    // culprits (charged per paper's fallback).
                    fx.charge(self.core.cfg.cost.sig_verify() * cert.count() as u32);
                    bad
                }
            }
        } else {
            Vec::new()
        };
        if !culprits.is_empty() {
            // Each pruned contribution is an invalid signature from a
            // known signer index.
            self.core.cfg.telemetry.add(
                clanbft_telemetry::counters::REJECTED_BAD_SIG,
                culprits.len() as u64,
            );
        }
        let good_total = cert.signers.count_matching(|i| !culprits.contains(&i));
        let good_clan = cert
            .signers
            .count_matching(|i| !culprits.contains(&i) && clan.contains(PartyId(i as u32)));
        let ok = good_total >= quorum && good_clan >= clan.clan_quorum;
        if !ok && culprits.is_empty() {
            // A cert that fails thresholds without identifiable culprits is
            // simply malformed — still counted, never silent.
            self.core
                .cfg
                .telemetry
                .add(clanbft_telemetry::counters::REJECTED_BAD_SIG, 1);
        }
        ok
    }

    /// Forwards a valid certificate once (required for agreement when the
    /// originator distributed it selectively).
    fn forward_cert_once(
        &mut self,
        round: Round,
        source: PartyId,
        digest: Digest,
        cert: Arc<AggregateSignature>,
        fx: &mut Effects<P>,
    ) {
        let inst = self.core.instance(round, source);
        if inst.cert_sent {
            return;
        }
        inst.cert_sent = true;
        // Shares collected towards a certificate of our own are moot now.
        for set in &mut inst.echoes {
            set.sigs = Vec::new();
        }
        fx.multicast(
            Dest::Others,
            source,
            round,
            RbcMsg::EchoCert { digest, cert },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::payload::BytesPayload;
    use crate::topology::ClanTopology;
    use clanbft_crypto::{Registry, Scheme};
    use clanbft_simnet::cost::CostModel;
    use clanbft_telemetry::{counters, MemRecorder, Telemetry};
    use clanbft_types::{Micros, TribeParams};

    const N: usize = 4;
    const ROUND: Round = Round(1);
    const SOURCE: PartyId = PartyId(0);

    struct Rig {
        engine: TribeRbc2<BytesPayload>,
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
        let engine = TribeRbc2::new(cfg, Arc::clone(&auths[me as usize]));
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
        rig.engine.handle(PartyId(from), packet, &mut fx);
        fx
    }

    fn feed_echo(rig: &mut Rig, signer: u32) -> Effects<BytesPayload> {
        let digest = payload().rbc_digest();
        let statement = echo_statement(SOURCE, ROUND, &digest);
        let sig = Some(Arc::new(rig.auths[signer as usize].sign_digest(&statement)));
        feed(rig, signer, RbcMsg::Echo { digest, sig })
    }

    /// `(echoes counted, signature shares held)` for the instance under test.
    fn echo_state(rig: &Rig) -> (usize, usize) {
        let inst = rig.engine.core.existing(ROUND, SOURCE).expect("instance");
        (
            inst.echoes.iter().map(|set| set.all.count()).sum(),
            inst.echoes.iter().map(|set| set.sigs.len()).sum(),
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
                .any(|e| matches!(e, crate::engine::RbcEvent::DeliverFull { .. })),
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
