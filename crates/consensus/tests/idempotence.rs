//! Idempotence regressions at the consensus layer: every [`ConsensusMsg`]
//! variant is fed twice (and out of order) into a directly-driven
//! [`SailfishNode`]; duplicates must leave votes, timeouts, the committed
//! log and the evidence set unchanged, ticking only `rejected.duplicate`.

use clanbft_consensus::{ConsensusMsg, MergedPayload, NodeConfig, SailfishNode};
use clanbft_crypto::{Authenticator, Digest, Registry, Scheme, Signature};
use clanbft_rbc::{ClanTopology, RbcMsg, RbcPacket};
use clanbft_simnet::cost::CostModel;
use clanbft_simnet::protocol::{Ctx, Protocol};
use clanbft_telemetry::{counters, MemRecorder, Telemetry};
use clanbft_types::{Block, Encode, Micros, PartyId, Round, TribeParams, TxBatch, Vertex};
use std::sync::Arc;

struct Rig {
    node: SailfishNode,
    rec: Arc<MemRecorder>,
    cost: CostModel,
    me: PartyId,
}

fn rig(n: usize, me: u32) -> Rig {
    let topology = Arc::new(ClanTopology::whole_tribe(TribeParams::new(n)));
    let (registry, keypairs) = Registry::generate(Scheme::Keyed, n, 5);
    let auth = Arc::new(Authenticator::new(
        me as usize,
        keypairs.into_iter().nth(me as usize).expect("keypair"),
        registry,
    ));
    let (telemetry, rec) = Telemetry::mem();
    let mut cfg = NodeConfig::new(PartyId(me), topology);
    cfg.cost = CostModel::free();
    // Signature bytes are irrelevant here: dedup and conflict tracking must
    // work regardless of the verification mode.
    cfg.verify_sigs = false;
    cfg.telemetry = telemetry;
    let cost = cfg.cost;
    Rig {
        node: SailfishNode::new(cfg, auth),
        rec,
        cost,
        me: PartyId(me),
    }
}

/// Feeds `msg` and returns the messages the node sent in response.
fn deliver(rig: &mut Rig, from: u32, msg: ConsensusMsg) -> Vec<(PartyId, ConsensusMsg)> {
    let cost = rig.cost;
    let mut ctx = Ctx::new(rig.me, Micros(1), &cost);
    rig.node.on_message(PartyId(from), msg, &mut ctx);
    ctx.take_outbox()
}

fn vote(round: u64, vertex_id: Digest) -> ConsensusMsg {
    ConsensusMsg::Vote {
        round: Round(round),
        vertex_id,
        sig: Signature([0u8; 64]),
    }
}

fn timeout(round: u64) -> ConsensusMsg {
    ConsensusMsg::Timeout {
        round: Round(round),
        timeout_sig: Signature([0u8; 64]),
        no_vote_sig: Signature([0u8; 64]),
    }
}

/// A valid vertex/block payload for `source` at `round`.
fn merged(source: u32, round: u64) -> MergedPayload {
    let source = PartyId(source);
    let round = Round(round);
    let block = Block::new(
        source,
        round,
        vec![TxBatch::synthetic(source, 1, 10, 512, Micros::ZERO)],
    );
    let vertex = Vertex {
        round,
        source,
        block_digest: block.digest(),
        block_bytes: block.encoded_len() as u64,
        block_tx_count: block.tx_count(),
        strong_edges: vec![],
        weak_edges: vec![],
        nvc: None,
        tc: None,
    };
    MergedPayload::new(vertex, block)
}

fn rbc_val(source: u32, round: u64) -> ConsensusMsg {
    ConsensusMsg::Rbc(RbcPacket {
        source: PartyId(source),
        round: Round(round),
        msg: RbcMsg::Val(merged(source, round)),
    })
}

#[test]
fn duplicate_vote_is_a_counted_noop() {
    let mut r = rig(4, 0);
    let d = Digest::of(b"leader-vertex");
    deliver(&mut r, 2, vote(1, d));
    let dup_before = r.rec.counter(counters::REJECTED_DUPLICATE);

    let out = deliver(&mut r, 2, vote(1, d));
    assert!(out.is_empty(), "duplicate vote triggered sends");
    assert!(r.rec.counter(counters::REJECTED_DUPLICATE) > dup_before);
    assert!(r.node.evidence().is_empty(), "duplicate is not a conflict");
    assert!(r.node.committed_log.is_empty());
}

#[test]
fn conflicting_vote_is_evidence_recorded_once() {
    let mut r = rig(4, 0);
    let a = Digest::of(b"vertex-a");
    let b = Digest::of(b"vertex-b");
    deliver(&mut r, 2, vote(1, a));
    deliver(&mut r, 2, vote(1, b));
    assert_eq!(r.node.evidence().len(), 1, "double vote must be evidence");
    assert_eq!(r.node.evidence()[0].kind(), "double_vote");
    assert_eq!(r.node.evidence()[0].culprit(), PartyId(2));

    // Replaying either conflicting vote adds nothing.
    deliver(&mut r, 2, vote(1, b));
    deliver(&mut r, 2, vote(1, a));
    assert_eq!(r.node.evidence().len(), 1, "evidence must be deduplicated");
    assert_eq!(r.rec.counter(counters::EVIDENCE_RECORDED), 1);
}

#[test]
fn duplicate_timeout_is_a_counted_noop() {
    let mut r = rig(4, 0);
    deliver(&mut r, 2, timeout(1));
    let dup_before = r.rec.counter(counters::REJECTED_DUPLICATE);
    let out = deliver(&mut r, 2, timeout(1));
    assert!(out.is_empty());
    assert!(r.rec.counter(counters::REJECTED_DUPLICATE) > dup_before);
    assert!(r.node.evidence().is_empty());
}

#[test]
fn vote_then_timeout_same_round_is_evidence_both_orders() {
    // Vote first, then a timeout for the same round: exclusivity violation.
    let mut r = rig(4, 0);
    deliver(&mut r, 3, vote(2, Digest::of(b"v")));
    deliver(&mut r, 3, timeout(2));
    assert_eq!(r.node.evidence().len(), 1);
    assert_eq!(r.node.evidence()[0].kind(), "vote_timeout_conflict");

    // The mirror order at a fresh node.
    let mut r2 = rig(4, 0);
    deliver(&mut r2, 3, timeout(2));
    deliver(&mut r2, 3, vote(2, Digest::of(b"v")));
    assert_eq!(r2.node.evidence().len(), 1);
    assert_eq!(r2.node.evidence()[0].kind(), "vote_timeout_conflict");
    assert_eq!(r2.node.evidence()[0].culprit(), PartyId(3));
}

#[test]
fn duplicate_rbc_val_through_the_node_is_a_counted_noop() {
    let mut r = rig(4, 0);
    let out1 = deliver(&mut r, 1, rbc_val(1, 1));
    assert!(!out1.is_empty(), "first VAL must produce an echo");
    let dup_before = r.rec.counter(counters::REJECTED_DUPLICATE);

    let out2 = deliver(&mut r, 1, rbc_val(1, 1));
    assert!(out2.is_empty(), "duplicate VAL re-sent messages");
    assert!(r.rec.counter(counters::REJECTED_DUPLICATE) > dup_before);
    assert!(r.node.evidence().is_empty());
}

#[test]
fn far_future_messages_are_rejected_by_the_round_window() {
    let mut r = rig(4, 0);
    let before = r.rec.counter(counters::REJECTED_BUFFER_FULL);
    // Both the consensus-level gate (votes/timeouts) and the RBC gate.
    let out = deliver(&mut r, 2, vote(100_000, Digest::of(b"x")));
    assert!(out.is_empty());
    deliver(&mut r, 2, timeout(100_000));
    deliver(&mut r, 1, rbc_val(1, 100_000));
    assert!(
        r.rec.counter(counters::REJECTED_BUFFER_FULL) >= before + 3,
        "far-future messages must be rejected and counted"
    );
    assert!(r.node.evidence().is_empty());
    assert!(r.node.committed_log.is_empty());
}

fn state_request(from_round: u64) -> ConsensusMsg {
    ConsensusMsg::StateRequest {
        from_round: Round(from_round),
        next_seq: 0,
    }
}

/// State transfers the node started in response to `msg` from party 2.
fn transfers_served(rig: &mut Rig, msg: ConsensusMsg) -> usize {
    deliver(rig, 2, msg)
        .iter()
        .filter(|(_, m)| matches!(m, ConsensusMsg::StateReply { .. }))
        .count()
}

#[test]
fn state_requests_are_served_once_per_round_of_progress() {
    // Each answer ships the whole live DAG window, so what a peer can make
    // this node send must not grow with the number of distinct `from_round`
    // values it cares to name: one answer while the node sits in round 0,
    // however many rounds are asked for, in whatever order.
    let mut r = rig(4, 0);
    let served: usize = (0..1_000)
        .rev()
        .map(|from_round| transfers_served(&mut r, state_request(from_round)))
        .sum();
    assert_eq!(served, 1, "one window per round of progress");
    assert_eq!(r.rec.counter(counters::STATE_TRANSFER_REQUESTS), 1);
    assert_eq!(r.rec.counter(counters::REJECTED_DUPLICATE), 999);
    assert_eq!(transfers_served(&mut r, state_request(0)), 0, "replay");

    // The node moves on to round 1: every party's round-0 vertex is
    // certified (signature bytes are not checked in this rig, a full signer
    // set is enough) and becomes live.
    for source in 0..4 {
        deliver(&mut r, source, rbc_val(source, 0));
        let signers: Vec<_> = (0..3).map(|i| (i, Signature([0u8; 64]))).collect();
        let cert = ConsensusMsg::Rbc(RbcPacket {
            source: PartyId(source),
            round: Round(0),
            msg: RbcMsg::EchoCert {
                digest: clanbft_rbc::TribePayload::rbc_digest(&merged(source, 0)),
                cert: Arc::new(clanbft_crypto::AggregateSignature::aggregate(4, &signers)),
            },
        });
        deliver(&mut r, 3, cert);
    }
    assert_eq!(r.node.round(), Round(1));

    // A genuine second restart asks from a later round and is served, once;
    // rounds the node has not reached stay refused.
    assert_eq!(transfers_served(&mut r, state_request(7)), 0);
    assert_eq!(transfers_served(&mut r, state_request(1)), 1);
    assert_eq!(transfers_served(&mut r, state_request(1)), 0);
    assert_eq!(transfers_served(&mut r, state_request(0)), 0, "stale");
}
