//! Honest-path hardening regressions: pull-service rate limiting, bounded
//! buffers (round window + per-instance digest cap), and the pull
//! retry/backoff/rotation machinery — each driven deterministically against
//! a bare [`TribeRbc`], plus one simulator run pinning the recovery-time
//! bound under a withholding sender.

use clanbft_crypto::Digest;
use clanbft_crypto::{Authenticator, Registry, Scheme, Signature};
use clanbft_rbc::standalone::{AnyNode, ByzantineNode, ByzantineSender, Delivery, StandaloneNode};
use clanbft_rbc::{
    echo_statement, parse_retry_token, BytesPayload, ClanTopology, Dest, Effects, EngineConfig,
    RbcEvent, RbcMsg, RbcPacket, TribePayload, TribeRbc, MAX_DIGESTS_PER_INSTANCE,
    MAX_PULL_ATTEMPTS,
};
use clanbft_simnet::cost::CostModel;
use clanbft_simnet::net::{SimConfig, Simulator};
use clanbft_telemetry::{counters, MemRecorder, Telemetry};
use clanbft_types::{Micros, PartyId, Round, TribeParams};
use std::sync::Arc;

const PULL_RETRY: Micros = Micros(400_000);

struct Rig {
    engine: TribeRbc<BytesPayload>,
    auths: Vec<Arc<Authenticator>>,
    rec: Arc<MemRecorder>,
}

fn rig(n: usize, me: u32) -> Rig {
    rig_on(Arc::new(ClanTopology::whole_tribe(TribeParams::new(n))), me)
}

fn rig_on(topology: Arc<ClanTopology>, me: u32) -> Rig {
    let n = topology.tribe().n();
    let (registry, keypairs) = Registry::generate(Scheme::Keyed, n, 13);
    let auths: Vec<Arc<Authenticator>> = keypairs
        .into_iter()
        .enumerate()
        .map(|(i, kp)| Arc::new(Authenticator::new(i, kp, Arc::clone(&registry))))
        .collect();
    let (telemetry, rec) = Telemetry::mem();
    let mut cfg = EngineConfig::new(PartyId(me), topology, CostModel::free());
    cfg.telemetry = telemetry;
    cfg.pull_retry = PULL_RETRY;
    let engine = TribeRbc::signed(cfg, Arc::clone(&auths[me as usize]));
    Rig { engine, auths, rec }
}

fn packet(source: u32, round: u64, msg: RbcMsg<BytesPayload>) -> RbcPacket<BytesPayload> {
    RbcPacket {
        source: PartyId(source),
        round: Round(round),
        msg,
    }
}

fn payload() -> BytesPayload {
    BytesPayload::new(vec![0x42; 512])
}

fn handle(rig: &mut Rig, from: u32, pkt: RbcPacket<BytesPayload>) -> Effects<BytesPayload> {
    let mut fx = Effects::at(Micros(1));
    rig.engine.handle(PartyId(from), &pkt, &mut fx);
    fx
}

/// Builds and feeds a correctly signed echo from `signer`.
fn feed_echo(rig: &mut Rig, signer: u32, source: u32, round: u64) -> Effects<BytesPayload> {
    let digest = TribePayload::rbc_digest(&payload());
    let statement = echo_statement(PartyId(source), Round(round), &digest);
    let sig = rig.auths[signer as usize].sign_digest(&statement);
    handle(
        rig,
        signer,
        packet(
            source,
            round,
            RbcMsg::Echo {
                digest,
                sig: Some(sig),
            },
        ),
    )
}

fn pull_targets(fx: &Effects<BytesPayload>) -> Vec<PartyId> {
    fx.out
        .iter()
        .filter_map(|(to, p)| match (to, &p.msg) {
            (Dest::One(to), RbcMsg::Pull { .. }) => Some(*to),
            _ => None,
        })
        .collect()
}

#[test]
fn pull_spam_gets_at_most_one_response() {
    // The broadcaster holds payload and meta; a spamming peer repeats the
    // same pull five times and gets exactly one response of each kind.
    let mut r = rig(4, 0);
    handle(&mut r, 0, packet(0, 1, RbcMsg::Val(payload())));
    let digest = TribePayload::rbc_digest(&payload());

    let mut responses = 0;
    for _ in 0..5 {
        let fx = handle(&mut r, 2, packet(0, 1, RbcMsg::Pull { digest }));
        responses += fx
            .out
            .iter()
            .filter(|(_, p)| matches!(p.msg, RbcMsg::PullResp(_)))
            .count();
    }
    assert_eq!(responses, 1, "pull spam must be served exactly once");

    // `PullMeta` is rate-limited by the same per-peer mechanism.
    let mut meta_responses = 0;
    for _ in 0..5 {
        let fx = handle(&mut r, 3, packet(0, 1, RbcMsg::PullMeta { digest }));
        meta_responses += fx
            .out
            .iter()
            .filter(|(_, p)| matches!(p.msg, RbcMsg::MetaResp(_)))
            .count();
    }
    assert_eq!(
        meta_responses, 1,
        "meta-pull spam must be served exactly once"
    );
    assert!(
        r.rec.counter(counters::REJECTED_DUPLICATE) >= 8,
        "spammed pulls must be counted, not silent"
    );
}

#[test]
fn retry_backs_off_rotates_and_stops_after_delivery() {
    // Party 3 certifies via echoes from 0, 1, 2 without ever holding the
    // payload: the engine pulls from `clan_quorum` echoers and arms a
    // deadline. Every expiry rotates to peers not yet asked and doubles the
    // backoff; a served response kills the chain.
    let mut r = rig(4, 3);
    feed_echo(&mut r, 0, 0, 1);
    feed_echo(&mut r, 1, 0, 1);
    let fx = feed_echo(&mut r, 2, 0, 1);
    assert!(fx
        .events
        .iter()
        .any(|e| matches!(e, RbcEvent::Certified { .. })));
    let first_targets = pull_targets(&fx);
    assert_eq!(first_targets.len(), 2, "pulls go to clan_quorum echoers");
    let (delay0, token) = fx.timers[0];
    assert_eq!(
        delay0, PULL_RETRY,
        "initial deadline is the configured base"
    );
    assert_eq!(parse_retry_token(token), Some((Round(1), PartyId(0))));

    // Deadline expires unanswered: rotate to the one echoer not yet asked,
    // with a doubled deadline.
    let mut fx1 = Effects::at(PULL_RETRY);
    r.engine.on_retry(Round(1), PartyId(0), &mut fx1);
    assert_eq!(r.rec.counter(counters::PULL_RETRIES), 1);
    let second_targets = pull_targets(&fx1);
    assert!(!second_targets.is_empty(), "retry must re-send pulls");
    for t in &second_targets {
        assert!(
            !first_targets.contains(t),
            "retry must rotate to peers not yet asked"
        );
    }
    assert_eq!(
        fx1.timers[0].0,
        Micros(PULL_RETRY.0 << 1),
        "backoff doubles"
    );

    // Second expiry: everyone was asked, so the slate clears and the
    // backoff keeps growing.
    let mut fx2 = Effects::at(Micros(PULL_RETRY.0 * 3));
    r.engine.on_retry(Round(1), PartyId(0), &mut fx2);
    assert_eq!(r.rec.counter(counters::PULL_RETRIES), 2);
    assert!(!pull_targets(&fx2).is_empty());
    assert_eq!(fx2.timers[0].0, Micros(PULL_RETRY.0 << 2));

    // A response lands: delivery happens and the next expiry is inert.
    let fxr = handle(&mut r, 1, packet(0, 1, RbcMsg::PullResp(payload())));
    assert!(fxr
        .events
        .iter()
        .any(|e| matches!(e, RbcEvent::DeliverFull { .. })));
    let mut fx3 = Effects::at(Micros(PULL_RETRY.0 * 8));
    r.engine.on_retry(Round(1), PartyId(0), &mut fx3);
    assert!(fx3.out.is_empty(), "retry chain must die after delivery");
    assert!(
        fx3.timers.is_empty(),
        "timer must not re-arm after delivery"
    );
    assert_eq!(r.rec.counter(counters::PULL_RETRIES), 2);
}

#[test]
fn retry_chain_is_bounded() {
    // With nobody ever answering, the chain stops at MAX_PULL_ATTEMPTS.
    let mut r = rig(4, 3);
    feed_echo(&mut r, 0, 0, 1);
    feed_echo(&mut r, 1, 0, 1);
    feed_echo(&mut r, 2, 0, 1);
    for _ in 0..MAX_PULL_ATTEMPTS {
        let mut fx = Effects::at(Micros(1));
        r.engine.on_retry(Round(1), PartyId(0), &mut fx);
        assert!(!fx.timers.is_empty(), "chain re-arms below the cap");
    }
    assert_eq!(
        r.rec.counter(counters::PULL_RETRIES),
        MAX_PULL_ATTEMPTS as u64
    );
    let mut fx = Effects::at(Micros(1));
    r.engine.on_retry(Round(1), PartyId(0), &mut fx);
    assert!(
        fx.out.is_empty() && fx.timers.is_empty(),
        "cap not enforced"
    );
    assert_eq!(
        r.rec.counter(counters::PULL_RETRIES),
        MAX_PULL_ATTEMPTS as u64,
        "attempts beyond the cap must not count as retries"
    );
}

#[test]
fn far_future_and_stale_rounds_are_rejected() {
    let mut r = rig(4, 1);
    // Far beyond the admission window: rejected before any state exists.
    let fx = handle(&mut r, 0, packet(0, 300, RbcMsg::Val(payload())));
    assert!(fx.out.is_empty(), "far-future VAL must not be processed");
    assert_eq!(r.rec.counter(counters::REJECTED_BUFFER_FULL), 1);

    // Once consensus legitimately advances, the same round is admitted.
    r.engine.note_round(Round(100));
    let fx = handle(&mut r, 0, packet(0, 300, RbcMsg::Val(payload())));
    assert!(!fx.out.is_empty(), "admitted VAL must trigger an echo");

    // Stale: below the prune horizon, replays cannot resurrect instances.
    r.engine.prune_below(Round(50));
    let fx = handle(&mut r, 0, packet(0, 49, RbcMsg::Val(payload())));
    assert!(fx.out.is_empty(), "stale VAL must not be processed");
    assert_eq!(r.rec.counter(counters::REJECTED_BUFFER_FULL), 2);
}

#[test]
fn per_instance_digest_tracking_is_capped() {
    // An attacker echoing a fresh digest per message cannot grow one
    // instance without bound: beyond MAX_DIGESTS_PER_INSTANCE the echoes
    // are dropped and counted, and the divergence is recorded once.
    let mut r = rig(4, 1);
    let junk = || Some(Signature([9u8; 64]));
    for i in 0..(MAX_DIGESTS_PER_INSTANCE as u8 + 3) {
        let digest = Digest::of(&[i]);
        handle(
            &mut r,
            2,
            packet(
                0,
                1,
                RbcMsg::Echo {
                    digest,
                    sig: junk(),
                },
            ),
        );
    }
    assert_eq!(
        r.rec.counter(counters::REJECTED_BUFFER_FULL),
        3,
        "digests beyond the cap must be rejected"
    );
    let ev = r.engine.take_evidence();
    assert_eq!(ev.len(), 1, "echo divergence is evidence, recorded once");
    assert_eq!(ev[0].culprit(), PartyId(0), "attributed to the source");
}

/// Feeds a correctly signed echo of `digest` from `signer`, for party 0's
/// broadcast in `round`.
fn feed_echo_of(rig: &mut Rig, signer: u32, round: u64, digest: Digest) -> Effects<BytesPayload> {
    let statement = echo_statement(PartyId(0), Round(round), &digest);
    let sig = rig.auths[signer as usize].sign_digest(&statement);
    let sig = Some(sig);
    handle(rig, signer, packet(0, round, RbcMsg::Echo { digest, sig }))
}

#[test]
fn equivocating_source_spills_tallies_up_to_the_cap() {
    // Two up to cap + 1 digests behind one instance: the first sits in the
    // instance's inline record, the next ones spill behind it, the one past
    // the cap is refused, and the divergence is evidenced once, naming the
    // first two digests in arrival order.
    for k in 2..=MAX_DIGESTS_PER_INSTANCE + 1 {
        let mut r = rig(7, 1);
        let digests: Vec<Digest> = (0..k as u8).map(|i| Digest::of(&[0xE0, i])).collect();
        for d in &digests {
            let fx = feed_echo_of(&mut r, 2, 1, *d);
            assert!(fx.out.is_empty() && fx.events.is_empty());
        }
        let tracked = k.min(MAX_DIGESTS_PER_INSTANCE);
        assert_eq!(
            r.engine.buffer_stats().echo_digests,
            tracked as u64,
            "k={k}"
        );
        assert_eq!(
            r.rec.counter(counters::REJECTED_BUFFER_FULL),
            (k - tracked) as u64,
            "k={k}: only the digest past the cap is refused"
        );
        assert_eq!(
            r.engine.take_evidence(),
            vec![clanbft_types::Evidence::EquivocatingSource {
                round: Round(1),
                source: PartyId(0),
                first: digests[0],
                second: digests[1],
            }],
            "k={k}"
        );
        // A duplicate of a spilled echo is a duplicate, not a new digest.
        feed_echo_of(&mut r, 2, 1, digests[1]);
        assert_eq!(r.rec.counter(counters::REJECTED_DUPLICATE), 1);
        // The last tracked digest — a spilled one — gathers a quorum (party
        // 2's echo above plus four more): its certificate is assembled from
        // the shares kept beside its tally.
        let winner = digests[tracked - 1];
        let mut cert = None;
        for signer in [0, 3, 4, 5] {
            assert!(cert.is_none(), "k={k}: certificate before the quorum");
            let fx = feed_echo_of(&mut r, signer, 1, winner);
            cert = fx.out.iter().find_map(|(_, p)| match &p.msg {
                RbcMsg::EchoCert { digest, cert } => Some((*digest, cert.count())),
                _ => None,
            });
        }
        assert_eq!(cert, Some((winner, 5)), "k={k}");
        assert!(r.engine.take_evidence().is_empty(), "evidenced once");
    }
}

#[test]
fn window_slide_keeps_later_rounds_and_recreates_fresh_slots() {
    let mut r = rig(4, 1);
    let digest = TribePayload::rbc_digest(&payload());
    for round in [3, 4, 7] {
        feed_echo_of(&mut r, 2, round, digest);
    }
    handle(&mut r, 0, packet(0, 7, RbcMsg::Val(payload())));
    assert_eq!(r.engine.buffer_stats().instances, 3);
    r.engine.prune_below(Round(5));
    // Round 7 moved to the front of the window with its state intact: the
    // echo counted before the slide is still a duplicate, the view is held.
    assert_eq!(r.engine.buffer_stats().instances, 1);
    assert!(r.engine.meta_of(Round(7), PartyId(0)).is_some());
    feed_echo_of(&mut r, 2, 7, digest);
    assert_eq!(r.rec.counter(counters::REJECTED_DUPLICATE), 1);
    // Rounds 5 and 6 were never touched: their slots start from nothing,
    // whatever the rows that used to sit at their offsets held.
    for round in [5, 6] {
        assert!(r.engine.meta_of(Round(round), PartyId(0)).is_none());
        feed_echo_of(&mut r, 2, round, digest);
    }
    assert_eq!(r.rec.counter(counters::REJECTED_DUPLICATE), 1);
    let stats = r.engine.buffer_stats();
    assert_eq!((stats.instances, stats.echo_digests), (3, 3));
    // Sliding past everything empties the window; a later round refills it.
    r.engine.prune_below(Round(100));
    assert_eq!(r.engine.buffer_stats().instances, 0);
    feed_echo_of(&mut r, 2, 100, digest);
    assert_eq!(r.engine.buffer_stats().instances, 1);
}

#[test]
fn withheld_meta_delivers_within_one_retry_deadline_of_certification() {
    // A Byzantine sender deprives one non-clan party of its meta view. The
    // victim learns the certificate from the clan, pulls the meta, and must
    // deliver within one pull-retry deadline of certifying.
    let n = 10;
    let clan: Vec<u32> = vec![0, 2, 4, 6, 8];
    let victim = PartyId(1);
    let topology = Arc::new(ClanTopology::single_clan(
        TribeParams::new(n),
        clan.iter().map(|&i| PartyId(i)).collect(),
    ));
    let (registry, keypairs) = Registry::generate(Scheme::Keyed, n, 7);
    let auths: Vec<Arc<Authenticator>> = keypairs
        .into_iter()
        .enumerate()
        .map(|(i, kp)| Arc::new(Authenticator::new(i, kp, Arc::clone(&registry))))
        .collect();
    let payload = BytesPayload::new(vec![0xcd; 2048]);
    let nodes: Vec<AnyNode<BytesPayload>> = (0..n)
        .map(|i| {
            if i == 0 {
                AnyNode::Byzantine(ByzantineNode {
                    me: PartyId(0),
                    topology: Arc::clone(&topology),
                    behaviour: ByzantineSender::DepriveMeta {
                        payload: payload.clone(),
                        deprived: vec![victim],
                        round: Round(1),
                    },
                })
            } else {
                let mut ecfg =
                    EngineConfig::new(PartyId(i as u32), Arc::clone(&topology), CostModel::free());
                ecfg.pull_retry = PULL_RETRY;
                AnyNode::Honest(StandaloneNode::two(ecfg, Arc::clone(&auths[i])))
            }
        })
        .collect();
    let mut cfg = SimConfig::benign(n, 7);
    cfg.cost = CostModel::free();
    cfg.jitter_frac = 0.0;
    let mut sim = Simulator::new(cfg, nodes);
    sim.run_until(Micros::from_secs(30));

    let node = match sim.node(victim) {
        AnyNode::Honest(h) => h,
        AnyNode::Byzantine(_) => unreachable!(),
    };
    let certified_at = node
        .certified
        .iter()
        .find(|(s, r, _)| *s == PartyId(0) && *r == Round(1))
        .map(|(_, _, t)| *t)
        .expect("victim never certified the withheld broadcast");
    let delivered_at = node
        .deliveries
        .iter()
        .find_map(|d| match d {
            Delivery::Meta(s, r, m, t) if *s == PartyId(0) && *r == Round(1) => {
                assert_eq!(m.0, TribePayload::rbc_digest(&payload));
                Some(*t)
            }
            _ => None,
        })
        .expect("victim never recovered the withheld meta view");
    let lag = delivered_at.saturating_sub(certified_at);
    assert!(
        lag <= PULL_RETRY,
        "withheld meta took {lag:?} (> one retry deadline {PULL_RETRY:?}) \
         after certification"
    );
}

fn cert_formed(fx: &Effects<BytesPayload>) -> bool {
    fx.out
        .iter()
        .any(|(_, p)| matches!(p.msg, RbcMsg::EchoCert { .. }))
}

#[test]
fn a_tribe_past_the_inline_voter_set_certifies_at_its_quorum() {
    // n = 300 (quorum 201), echoes arriving from the highest party down:
    // the first 44 voters sit past `PartySet::INLINE`. Each echo is fed
    // twice; only distinct voters count.
    let n = 300;
    let quorum = TribeParams::new(n).quorum();
    let mut r = rig(n, 1);
    handle(&mut r, 0, packet(0, 1, RbcMsg::Val(payload())));
    let certified_at = (0..n as u32).rev().position(|signer| {
        let formed = cert_formed(&feed_echo(&mut r, signer, 0, 1));
        assert!(!cert_formed(&feed_echo(&mut r, signer, 0, 1)), "repeat");
        formed
    });
    assert_eq!(certified_at, Some(quorum - 1));
    assert!(r.engine.delivered(Round(1), PartyId(0)));
}

#[test]
fn pruned_rounds_stay_dead_and_lookups_never_allocate() {
    let mut r = rig(4, 1);
    handle(&mut r, 0, packet(0, 10, RbcMsg::Val(payload())));
    handle(&mut r, 0, packet(0, 60, RbcMsg::Val(payload())));
    assert_eq!(r.engine.buffer_stats().instances, 2);

    // Read-only lookups — absent instance, round far outside the window,
    // source outside the tribe — answer "nothing" and create nothing.
    assert!(!r.engine.delivered(Round(10), PartyId(3)));
    assert!(!r.engine.delivered(Round(1 << 40), PartyId(0)));
    assert!(r.engine.meta_of(Round(1 << 40), PartyId(0)).is_none());
    assert!(r.engine.meta_of(Round(10), PartyId(99)).is_none());
    assert_eq!(r.engine.buffer_stats().instances, 2);

    r.engine.prune_below(Round(50));
    assert_eq!(r.engine.buffer_stats().instances, 1);
    assert!(r.engine.meta_of(Round(10), PartyId(0)).is_none());
    let (_, held) = r
        .engine
        .meta_of(Round(60), PartyId(0))
        .expect("rounds at or above the horizon keep their state");
    assert_eq!(held, TribePayload::rbc_digest(&payload()));

    // Replaying any message kind below the horizon is counted and ignored:
    // the pruned slot is not recreated, and a stale retry timer dies.
    let digest = TribePayload::rbc_digest(&payload());
    for round in [10, 49] {
        for msg in [
            RbcMsg::Val(payload()),
            RbcMsg::Pull { digest },
            RbcMsg::PullResp(payload()),
        ] {
            let fx = handle(&mut r, 0, packet(0, round, msg));
            assert!(fx.out.is_empty() && fx.events.is_empty() && fx.timers.is_empty());
        }
        let fx = feed_echo(&mut r, 2, 0, round);
        assert!(fx.out.is_empty() && fx.events.is_empty());
        let mut fx = Effects::at(Micros(1));
        r.engine.on_retry(Round(round), PartyId(0), &mut fx);
        assert!(fx.out.is_empty() && fx.timers.is_empty());
    }
    assert_eq!(r.rec.counter(counters::REJECTED_BUFFER_FULL), 8);
    assert_eq!(r.engine.buffer_stats().instances, 1);

    // The horizon only moves forward: pruning lower reopens nothing.
    r.engine.prune_below(Round(20));
    let fx = handle(&mut r, 0, packet(0, 30, RbcMsg::Val(payload())));
    assert!(fx.out.is_empty(), "round 30 is still below the horizon");
    assert_eq!(r.engine.buffer_stats().instances, 1);
}

#[test]
fn admission_window_edge_and_foreign_sources() {
    // Default window: 256 rounds beyond the highest legitimately active one.
    let mut r = rig(4, 1);
    r.engine.note_round(Round(10));
    let fx = handle(&mut r, 0, packet(0, 266, RbcMsg::Val(payload())));
    assert!(!fx.out.is_empty(), "round_hint + round_window is admitted");
    let fx = handle(&mut r, 0, packet(0, 267, RbcMsg::Val(payload())));
    assert!(fx.out.is_empty(), "one round further is not");
    assert_eq!(r.rec.counter(counters::REJECTED_BUFFER_FULL), 1);

    // A packet naming a source outside the tribe has no slot to land in: it
    // is rejected at the same gate instead of allocating (or panicking).
    let fx = feed_echo(&mut r, 2, 4, 5);
    assert!(fx.out.is_empty() && fx.events.is_empty());
    assert_eq!(r.rec.counter(counters::REJECTED_BUFFER_FULL), 2);
    assert_eq!(r.engine.buffer_stats().instances, 1);

    // Nor does a sender outside the tribe vote or pull: three echoes would
    // be a quorum at n = 4, and none of these is counted or answered.
    let digest = TribePayload::rbc_digest(&payload());
    let sig = Some(r.auths[2].sign_digest(&digest));
    for (at, from) in [4, 5, 300, u32::MAX].into_iter().enumerate() {
        let echo = RbcMsg::Echo { digest, sig };
        let pull = RbcMsg::Pull { digest };
        for msg in [echo, pull] {
            let fx = handle(&mut r, from, packet(0, 266, msg));
            assert!(fx.out.is_empty() && fx.events.is_empty(), "from {from}");
        }
        let rejected = r.rec.counter(counters::REJECTED_BUFFER_FULL);
        assert_eq!(rejected, 2 + 2 * (at as u64 + 1));
    }
    assert_eq!(r.engine.buffer_stats().instances, 1);
}

#[test]
fn epoch_rotated_topology_resolves_per_round() {
    // n = 7 (quorum 5, and at least one echo from the source's clan). Clan
    // {0, 1} governs rounds below 5, clan {5, 6} rounds from 5 on; party 4
    // (in neither) collects echoes from 2..=6 for source 0.
    let tribe = TribeParams::new(7);
    let clan = |members: [u32; 2]| {
        Arc::new(ClanTopology::single_clan(
            tribe,
            members.into_iter().map(PartyId).collect(),
        ))
    };
    let mut r = rig_on(clan([0, 1]), 4);
    r.engine.install_epoch(Round(5), clan([5, 6]));

    // Round 4 is governed by {0, 1}: five echoes, none from the clan.
    for signer in 2..=6 {
        let fx = feed_echo(&mut r, signer, 0, 4);
        assert!(!cert_formed(&fx), "no clan echo, no certificate");
    }
    // Round 5 is governed by {5, 6}: the same five signers certify.
    for signer in 2..=5 {
        assert!(!cert_formed(&feed_echo(&mut r, signer, 0, 5)));
    }
    assert!(cert_formed(&feed_echo(&mut r, 6, 0, 5)));
    // The round-4 instance kept its own epoch's rule: one echo from its
    // clan completes it.
    assert!(cert_formed(&feed_echo(&mut r, 1, 0, 4)));
}
