//! Pins on the index-addressed delivery path, measured with the counting
//! allocator: a round or party number from the wire never sizes an
//! allocation, and a benign broadcast instance costs a fixed handful of
//! allocations — none at all once it is certified.

use clanbft_consensus::messages::CommittedRec;
use clanbft_consensus::{ConsensusMsg, MergedPayload, NodeConfig, SailfishNode};
use clanbft_crypto::{Authenticator, Digest, Registry, Scheme, Signature};
use clanbft_profiler as prof;
use clanbft_rbc::{
    echo_statement, BytesPayload, ClanTopology, Effects, EngineConfig, RbcEvent, RbcMsg, RbcPacket,
    TribePayload, TribeRbc,
};
use clanbft_simnet::cost::CostModel;
use clanbft_simnet::protocol::{Ctx, Protocol};
use clanbft_types::{Block, Encode, Micros, PartyId, Round, TribeParams, Vertex, VertexRef};
use std::sync::{Arc, Mutex};

#[global_allocator]
static ALLOC: prof::CountingAlloc = prof::CountingAlloc;

/// The profiler's switch is process-wide: one measurement at a time.
static PROFILER: Mutex<()> = Mutex::new(());

/// `(allocations, bytes)` this thread made inside `body`, the profiler's own
/// bookkeeping for the window included (a few small ones; see
/// [`window_floor`]).
fn allocations_in(body: impl FnOnce()) -> (u64, u64) {
    prof::reset();
    prof::enable();
    {
        let _window = prof::scope("window");
        body();
    }
    let report = prof::take_report();
    prof::disable();
    let window = &report.scopes[0];
    assert_eq!(window.path, "window");
    (window.alloc_count, window.alloc_bytes)
}

fn auths(n: usize) -> Vec<Arc<Authenticator>> {
    let (registry, keypairs) = Registry::generate(Scheme::Keyed, n, 5);
    keypairs
        .into_iter()
        .enumerate()
        .map(|(i, kp)| Arc::new(Authenticator::new(i, kp, Arc::clone(&registry))))
        .collect()
}

// --- untrusted numbers ------------------------------------------------------

const FAR: Round = Round(u64::MAX - 1);
const NOBODY: PartyId = PartyId(u32::MAX);

fn node(me: u32) -> (SailfishNode, CostModel) {
    let topology = Arc::new(ClanTopology::whole_tribe(TribeParams::new(4)));
    let mut cfg = NodeConfig::new(PartyId(me), topology);
    cfg.cost = CostModel::free();
    cfg.verify_sigs = false;
    let cost = cfg.cost;
    let auth = auths(4).swap_remove(me as usize);
    (SailfishNode::new(cfg, auth), cost)
}

fn deliver(node: &mut SailfishNode, cost: &CostModel, from: u32, msg: ConsensusMsg) {
    let mut ctx = Ctx::new(PartyId(0), Micros(1), cost);
    node.on_message(PartyId(from), msg, &mut ctx);
}

/// A vertex (all four strong edges, so no certificate is needed) with its
/// empty block, claiming `(round, source)`.
fn merged(round: Round, source: PartyId) -> MergedPayload {
    let block = Block::empty(source, round);
    let vertex = Vertex {
        round,
        source,
        block_digest: block.digest(),
        block_bytes: block.encoded_len() as u64,
        block_tx_count: 0,
        strong_edges: (0..4)
            .map(|s| VertexRef {
                round: Round(round.0 - 1),
                source: PartyId(s),
            })
            .collect(),
        weak_edges: vec![],
        nvc: None,
        tc: None,
    };
    MergedPayload {
        vertex: Arc::new(vertex),
        block: Arc::new(block),
    }
}

fn rbc(source: PartyId, round: Round, msg: RbcMsg<MergedPayload>) -> ConsensusMsg {
    ConsensusMsg::Rbc(RbcPacket { source, round, msg })
}

/// Runs `payload` through party `source`'s round-1 broadcast instance until
/// the node under test has certified and delivered it: the VAL, then a
/// quorum of (unverified) echoes.
fn broadcast_to(node: &mut SailfishNode, cost: &CostModel, source: u32, payload: MergedPayload) {
    let digest = payload.rbc_digest();
    let instance = |msg| rbc(PartyId(source), Round(1), msg);
    deliver(node, cost, source, instance(RbcMsg::Val(payload)));
    for from in 1..4 {
        let sig = Some(Arc::new(Signature([7; 64])));
        deliver(node, cost, from, instance(RbcMsg::Echo { digest, sig }));
    }
}

#[test]
fn wire_numbers_never_size_an_allocation() {
    let _guard = PROFILER.lock().unwrap_or_else(|e| e.into_inner());
    let (mut node, cost) = node(0);
    let digest = Digest::of(b"whatever");
    let sig = Signature([7; 64]);
    let echo = || RbcMsg::Echo {
        digest,
        sig: Some(Arc::new(sig)),
    };
    let far_vertex = merged(FAR, PartyId(2));
    let foreign_vertex = merged(Round(1), NOBODY);
    let (count, bytes) = allocations_in(|| {
        // Broadcast traffic for an instance no window or tribe contains.
        deliver(&mut node, &cost, 1, rbc(PartyId(1), FAR, echo()));
        deliver(&mut node, &cost, 1, rbc(NOBODY, Round(1), echo()));
        let val = RbcMsg::Val(merged(FAR, PartyId(1)));
        deliver(&mut node, &cost, 1, rbc(PartyId(1), FAR, val));
        // ... and for one they do, from a sender the tribe does not: a
        // voter set grows by the member it is given.
        for from in [4, NOBODY.0] {
            deliver(&mut node, &cost, from, rbc(PartyId(1), Round(1), echo()));
            let pull = RbcMsg::Pull { digest };
            deliver(&mut node, &cost, from, rbc(PartyId(1), Round(1), pull));
        }
        // A vertex of a far round, or naming no party, delivered through a
        // legitimate instance: refused, or buffered as one pending entry.
        broadcast_to(&mut node, &cost, 2, far_vertex);
        broadcast_to(&mut node, &cost, 3, foreign_vertex);
        // Votes and timeouts for a far round.
        let vote = ConsensusMsg::Vote {
            round: FAR,
            vertex_id: digest,
            sig,
        };
        deliver(&mut node, &cost, 1, vote);
        let timeout = ConsensusMsg::Timeout {
            round: FAR,
            timeout_sig: sig,
            no_vote_sig: sig,
        };
        deliver(&mut node, &cost, 1, timeout);
    });
    assert!(
        count < 200 && bytes < 64 * 1024,
        "{count} allocations, {bytes} bytes for a dozen refused messages"
    );
    assert_eq!(node.round(), Round(0), "nothing moved the node");
    assert!(node.committed_log.is_empty());
}

#[test]
fn state_chunk_entries_with_wild_numbers_are_refused_or_stored_once() {
    let _guard = PROFILER.lock().unwrap_or_else(|e| e.into_inner());
    let (mut node, cost) = node(0);
    // A restart opens a state transfer (from round 0 on this fresh node).
    let mut ctx = Ctx::new(PartyId(0), Micros(1), &cost);
    node.on_start(&mut ctx);
    node.on_restart(&mut ctx);
    let far = merged(FAR, PartyId(2)).vertex;
    let foreign = merged(Round(1), NOBODY).vertex;
    let wild_commit = CommittedRec {
        sequence: u64::MAX - 1,
        vertex: VertexRef {
            round: FAR,
            source: NOBODY,
        },
        block_digest: Digest::ZERO,
        block_bytes: u64::MAX,
        block_tx_count: u64::MAX,
        leader_round: FAR,
    };
    let (count, bytes) = allocations_in(|| {
        // f + 1 = 2 responders agree on all of it, which settles the
        // transfer and applies what was agreed.
        for from in [1, 2] {
            let chunk = ConsensusMsg::StateChunk {
                from_round: Round(0),
                seq: 0,
                last: true,
                vertices: vec![Arc::clone(&far), Arc::clone(&foreign)],
                committed: vec![wild_commit.clone()],
            };
            deliver(&mut node, &cost, from, chunk);
        }
    });
    assert!(
        count < 200 && bytes < 64 * 1024,
        "{count} allocations, {bytes} bytes for two state chunks"
    );
    assert!(node.committed_log.is_empty(), "a gap is not adopted");
    assert_eq!(node.commit_seq_base(), 0);
}

// --- one benign instance ----------------------------------------------------

const N: usize = 50;

struct Engine {
    rbc: TribeRbc<BytesPayload>,
    auths: Vec<Arc<Authenticator>>,
    fx: Effects<BytesPayload>,
}

impl Engine {
    fn handle(&mut self, from: usize, round: u64, msg: RbcMsg<BytesPayload>) {
        let packet = RbcPacket {
            source: PartyId(0),
            round: Round(round),
            msg,
        };
        self.rbc.handle(PartyId(from as u32), &packet, &mut self.fx);
    }

    fn echo(&self, from: usize, round: u64, digest: Digest) -> RbcMsg<BytesPayload> {
        let statement = echo_statement(PartyId(0), Round(round), &digest);
        let sig = self.auths[from].sign_digest(&statement);
        RbcMsg::Echo {
            digest,
            sig: Some(Arc::new(sig)),
        }
    }
}

/// What the profiler itself allocates for a window in which `rbc.handle`
/// runs: a packet the admission gate refuses allocates nothing else.
fn window_floor(engine: &mut Engine) -> u64 {
    let stale = RbcMsg::Pull {
        digest: Digest::ZERO,
    };
    allocations_in(|| engine.handle(1, u64::MAX, stale)).0
}

#[test]
fn a_benign_instance_costs_a_handful_of_allocations_and_none_once_certified() {
    let _guard = PROFILER.lock().unwrap_or_else(|e| e.into_inner());
    let topology = Arc::new(ClanTopology::whole_tribe(TribeParams::new(N)));
    let auths = auths(N);
    let cfg = EngineConfig::new(PartyId(1), topology, CostModel::free());
    let mut engine = Engine {
        rbc: TribeRbc::signed(cfg, Arc::clone(&auths[1])),
        auths,
        fx: Effects::new(),
    };
    let payload = BytesPayload::new(vec![0x42; 512]);
    let digest = payload.rbc_digest();
    let quorum = TribeParams::new(N).quorum();
    // Round 1 warms the window (the row table, the effect buffers) the way
    // any earlier round does; round 2 is measured.
    for round in [1, 2] {
        let messages: Vec<(usize, RbcMsg<BytesPayload>)> =
            std::iter::once((0, RbcMsg::Val(payload.clone())))
                .chain((0..N).map(|from| (from, engine.echo(from, round, digest))))
                .collect();
        let floor = window_floor(&mut engine);
        // VAL and the echoes up to the quorum: this party echoes, forms the
        // certificate and delivers.
        let mut messages = messages.into_iter();
        let (count, _) = allocations_in(|| {
            for (from, msg) in messages.by_ref().take(1 + quorum) {
                engine.handle(from, round, msg);
            }
        });
        let delivered = |fx: &Effects<BytesPayload>| {
            fx.events
                .iter()
                .any(|e| matches!(e, RbcEvent::DeliverFull { .. }))
        };
        assert!(
            delivered(&engine.fx),
            "round {round} delivered at the quorum"
        );
        let cert = engine
            .fx
            .out
            .iter()
            .find_map(|(_, p)| match &p.msg {
                RbcMsg::EchoCert { cert, .. } => Some(Arc::clone(cert)),
                _ => None,
            })
            .expect("certificate formed");
        engine.fx = Effects::new();
        if round == 2 {
            // The row, the cold part, the echo's signature, the share
            // buffer, the certificate (sorted shares, signer set,
            // signatures, the shared handle) and the effect buffers: 11
            // today, 20 with a boxed instance and heap bit sets.
            assert!(count - floor <= 11, "{} allocations", count - floor);
        }
        // Everything after certification — the remaining echoes and the 49
        // certificates the other parties forward — moves a bit or nothing.
        let late: Vec<(usize, RbcMsg<BytesPayload>)> = messages
            .chain((2..N).chain([0]).map(|from| {
                let cert = Arc::clone(&cert);
                (from, RbcMsg::EchoCert { digest, cert })
            }))
            .collect();
        assert_eq!(late.len(), N - quorum + N - 1);
        let (count, _) = allocations_in(|| {
            for (from, msg) in late {
                engine.handle(from, round, msg);
            }
        });
        assert_eq!(count - floor, 0, "allocations after certification");
        assert!(engine.fx.out.is_empty() && engine.fx.events.is_empty());
    }
}
