//! Idempotence regression suite for the RBC engine: every message variant
//! is fed twice (and out of order) into a directly-driven [`TribeRbc`];
//! duplicates must leave state, what the engine queues and yields, and
//! evidence unchanged, ticking only the `rejected.duplicate` counter.

use clanbft_crypto::{Authenticator, Registry, Scheme};
use clanbft_rbc::{
    echo_statement, BytesPayload, ClanTopology, EngineConfig, RbcEvent, RbcMsg, RbcPacket,
    TribePayload, TribeRbc,
};
use clanbft_simnet::cost::CostModel;
use clanbft_simnet::protocol::Ctx;
use clanbft_telemetry::{counters, MemRecorder, Telemetry};
use clanbft_types::{Evidence, Micros, PartyId, Round, TribeParams};
use std::sync::Arc;

/// A 4-party whole-tribe engine for `me`, with an in-memory recorder.
struct Rig {
    engine: TribeRbc<BytesPayload>,
    auths: Vec<Arc<Authenticator>>,
    rec: Arc<MemRecorder>,
    /// Evidence the engine yielded in every [`handle`] call so far.
    evidence: Vec<Evidence>,
}

fn rig(n: usize, me: u32, clan: Option<Vec<u32>>) -> Rig {
    let tribe = TribeParams::new(n);
    let topology = Arc::new(match clan {
        None => ClanTopology::whole_tribe(tribe),
        Some(members) => {
            ClanTopology::single_clan(tribe, members.into_iter().map(PartyId).collect())
        }
    });
    let (registry, keypairs) = Registry::generate(Scheme::Keyed, n, 11);
    let auths: Vec<Arc<Authenticator>> = keypairs
        .into_iter()
        .enumerate()
        .map(|(i, kp)| Arc::new(Authenticator::new(i, kp, Arc::clone(&registry))))
        .collect();
    let (telemetry, rec) = Telemetry::mem();
    let mut cfg = EngineConfig::new(PartyId(me), topology, CostModel::free());
    cfg.telemetry = telemetry;
    let engine = TribeRbc::signed(cfg, Arc::clone(&auths[me as usize]));
    Rig {
        engine,
        auths,
        rec,
        evidence: Vec::new(),
    }
}

fn packet(source: u32, round: u64, msg: RbcMsg<BytesPayload>) -> RbcPacket<BytesPayload> {
    RbcPacket {
        source: PartyId(source),
        round: Round(round),
        msg,
    }
}

fn payload() -> BytesPayload {
    BytesPayload::new(vec![0x5a; 256])
}

/// A properly signed echo from `signer` for `(source, round, digest)`.
fn echo(rig: &Rig, signer: u32, source: u32, round: u64) -> RbcMsg<BytesPayload> {
    let digest = TribePayload::rbc_digest(&payload());
    let statement = echo_statement(PartyId(source), Round(round), &digest);
    let sig = rig.auths[signer as usize].sign_digest(&statement);
    RbcMsg::Echo {
        digest,
        sig: Some(sig),
    }
}

/// What one [`handle`] call queued, one entry per recipient, and the
/// events it yielded.
struct Queued {
    out: Vec<(PartyId, RbcPacket<BytesPayload>)>,
    events: Vec<RbcEvent>,
}

fn handle(rig: &mut Rig, from: u32, pkt: RbcPacket<BytesPayload>) -> Queued {
    let cost = CostModel::free();
    let mut ctx = Ctx::new(rig.engine.config().me, Micros(1), &cost);
    rig.engine.handle(PartyId(from), &pkt, &mut ctx);
    let mut events = Vec::new();
    rig.engine.take_events(&mut events);
    rig.evidence.extend(events.iter().filter_map(|e| match e {
        RbcEvent::Evidence(ev) => Some(*ev),
        _ => None,
    }));
    Queued {
        out: ctx.take_outbox(),
        events,
    }
}

/// Builds and feeds a signed echo from `signer` in one step.
fn feed_echo(rig: &mut Rig, signer: u32, source: u32, round: u64) -> Queued {
    let e = echo(rig, signer, source, round);
    handle(rig, signer, packet(source, round, e))
}

#[test]
fn duplicate_val_is_a_counted_noop() {
    let mut r = rig(4, 1, None);
    let fx1 = handle(&mut r, 0, packet(0, 1, RbcMsg::Val(payload())));
    assert!(!fx1.out.is_empty(), "first VAL must trigger an echo");
    let dup_before = r.rec.counter(counters::REJECTED_DUPLICATE);

    let fx2 = handle(&mut r, 0, packet(0, 1, RbcMsg::Val(payload())));
    assert!(fx2.out.is_empty(), "duplicate VAL re-sent messages");
    assert!(fx2.events.is_empty(), "duplicate VAL re-emitted events");
    assert!(
        r.rec.counter(counters::REJECTED_DUPLICATE) > dup_before,
        "duplicate VAL was absorbed silently"
    );
    assert!(r.evidence.is_empty(), "duplicate is not equivocation");
    assert_eq!(r.rec.counter(counters::REJECTED_EQUIVOCATION), 0);
}

#[test]
fn duplicate_echo_is_not_double_counted() {
    let mut r = rig(4, 1, None);
    // Hold the payload so a threshold would immediately certify.
    handle(&mut r, 0, packet(0, 1, RbcMsg::Val(payload())));

    // Same signed echo from party 2, twice: the second is a counted no-op
    // and must not advance the echo count towards the quorum of 3.
    let e = echo(&r, 2, 0, 1);
    let fx1 = handle(&mut r, 2, packet(0, 1, e.clone()));
    assert!(fx1.events.is_empty(), "one echo must not certify");
    let dup_before = r.rec.counter(counters::REJECTED_DUPLICATE);
    let fx2 = handle(&mut r, 2, packet(0, 1, e));
    assert!(fx2.out.is_empty() && fx2.events.is_empty());
    assert!(r.rec.counter(counters::REJECTED_DUPLICATE) > dup_before);

    // Two *distinct* further echoes (own + party 3) do reach the quorum —
    // proving the duplicate above was excluded rather than miscounted.
    let own = echo(&r, 1, 0, 1);
    handle(&mut r, 1, packet(0, 1, own));
    let fx4 = feed_echo(&mut r, 3, 0, 1);
    assert!(
        fx4.events
            .iter()
            .any(|e| matches!(e, RbcEvent::Certified { .. })),
        "distinct echoes failed to certify"
    );
}

#[test]
fn duplicate_cert_is_dropped_before_verification() {
    let mut r = rig(4, 1, None);
    handle(&mut r, 0, packet(0, 1, RbcMsg::Val(payload())));
    feed_echo(&mut r, 1, 0, 1);
    feed_echo(&mut r, 2, 0, 1);
    let fx = feed_echo(&mut r, 0, 0, 1);
    // Quorum reached: this party formed and multicast the certificate.
    let cert_pkt = fx
        .out
        .iter()
        .find(|(_, p)| matches!(p.msg, RbcMsg::EchoCert { .. }))
        .map(|(_, p)| p.clone())
        .expect("certificate formed at quorum");
    assert!(r.engine.delivered(Round(1), PartyId(0)));

    // Replaying the certificate back is a complete no-op.
    let fx2 = handle(&mut r, 3, cert_pkt.clone());
    assert!(fx2.out.is_empty(), "duplicate cert was re-forwarded");
    assert!(fx2.events.is_empty(), "duplicate cert re-certified");
    let fx3 = handle(&mut r, 2, cert_pkt);
    assert!(fx3.out.is_empty() && fx3.events.is_empty());
}

#[test]
fn cert_before_val_then_duplicates_deliver_once() {
    // Out-of-order: the certificate arrives before the VAL. The node
    // certifies, starts a pull, then the VAL lands and delivery happens
    // exactly once; replaying either message changes nothing.
    let mut r = rig(4, 1, None);
    let mut donor = rig(4, 2, None);
    handle(&mut donor, 0, packet(0, 1, RbcMsg::Val(payload())));
    feed_echo(&mut donor, 1, 0, 1);
    feed_echo(&mut donor, 2, 0, 1);
    let fx = feed_echo(&mut donor, 3, 0, 1);
    let cert_pkt = fx
        .out
        .iter()
        .find(|(_, p)| matches!(p.msg, RbcMsg::EchoCert { .. }))
        .map(|(_, p)| p.clone())
        .expect("donor formed a certificate");

    let fx1 = handle(&mut r, 2, cert_pkt.clone());
    assert!(
        fx1.out
            .iter()
            .any(|(_, p)| matches!(p.msg, RbcMsg::Pull { .. })),
        "certified without payload must pull"
    );
    assert!(!r.engine.delivered(Round(1), PartyId(0)));

    let fx2 = handle(&mut r, 0, packet(0, 1, RbcMsg::Val(payload())));
    let delivers = |fx: &Queued| {
        fx.events
            .iter()
            .filter(|e| matches!(e, RbcEvent::DeliverFull { .. }))
            .count()
    };
    assert_eq!(delivers(&fx2), 1, "late VAL must deliver exactly once");

    let fx3 = handle(&mut r, 0, packet(0, 1, RbcMsg::Val(payload())));
    let fx4 = handle(&mut r, 3, cert_pkt);
    assert_eq!(delivers(&fx3) + delivers(&fx4), 0, "replays re-delivered");
    assert!(fx4.out.is_empty());
}

#[test]
fn duplicate_pull_resp_delivers_once() {
    // Certify without the payload, then receive the same PullResp twice:
    // one delivery, and no equivocation evidence from the redundant copy.
    let mut r = rig(4, 3, None);
    feed_echo(&mut r, 0, 0, 1);
    feed_echo(&mut r, 1, 0, 1);
    let fx = feed_echo(&mut r, 2, 0, 1);
    assert!(
        fx.events
            .iter()
            .any(|e| matches!(e, RbcEvent::Certified { .. })),
        "echo quorum must certify"
    );

    let fx1 = handle(&mut r, 1, packet(0, 1, RbcMsg::PullResp(payload())));
    assert!(fx1
        .events
        .iter()
        .any(|e| matches!(e, RbcEvent::DeliverFull { .. })));
    let fx2 = handle(&mut r, 2, packet(0, 1, RbcMsg::PullResp(payload())));
    assert!(fx2.events.is_empty(), "redundant PullResp re-delivered");
    assert!(fx2.out.is_empty());
    assert!(
        r.evidence.is_empty(),
        "benign PullResp redundancy must not be treated as equivocation"
    );
}

#[test]
fn duplicate_val_meta_is_a_counted_noop() {
    // Non-clan member under a single clan: meta view duplicates.
    let mut r = rig(6, 5, Some(vec![0, 1, 2]));
    let meta = TribePayload::meta(&payload());
    let fx1 = handle(&mut r, 0, packet(0, 1, RbcMsg::ValMeta(meta)));
    assert!(!fx1.out.is_empty(), "first meta must trigger an echo");
    let dup_before = r.rec.counter(counters::REJECTED_DUPLICATE);
    let fx2 = handle(&mut r, 0, packet(0, 1, RbcMsg::ValMeta(meta)));
    assert!(fx2.out.is_empty() && fx2.events.is_empty());
    assert!(r.rec.counter(counters::REJECTED_DUPLICATE) > dup_before);
    assert!(r.evidence.is_empty());
}

#[test]
fn conflicting_direct_val_is_evidence_not_a_duplicate() {
    // The contrast case: a *different* payload from the same source in the
    // same instance is attributable equivocation, recorded exactly once.
    let mut r = rig(4, 1, None);
    handle(&mut r, 0, packet(0, 1, RbcMsg::Val(payload())));
    let other = BytesPayload::new(vec![0x77; 128]);
    handle(&mut r, 0, packet(0, 1, RbcMsg::Val(other.clone())));
    handle(&mut r, 0, packet(0, 1, RbcMsg::Val(other)));
    let ev = &r.evidence;
    assert_eq!(ev.len(), 1, "equivocation must be recorded exactly once");
    assert_eq!(ev[0].culprit(), PartyId(0));
    assert_eq!(r.rec.counter(counters::EVIDENCE_RECORDED), 1);
}
