//! Pins on the index-addressed delivery path, measured with the counting
//! allocator: a round or party number from the wire never sizes an
//! allocation, and a benign broadcast instance costs a fixed handful of
//! allocations — none at all once it is certified — and a round whose
//! every instance has settled folds its row in one. The client ingress is
//! held to the same rule: a proposal cycle allocates per proposal, not per
//! arrival, a synthetic proposal is four pool records, and a client id the
//! table refuses allocates nothing.

use clanbft_consensus::messages::CommittedRec;
use clanbft_consensus::{ConsensusMsg, MergedPayload, NodeConfig, SailfishNode};
use clanbft_crypto::{AggregateSignature, Authenticator, Digest, Registry, Scheme, Signature};
use clanbft_mempool::{
    plan_batches, AdmitError, ClientId, ClientIngress, Lane, Mempool, MempoolConfig, PendingTx,
    SizerConfig, Submission, WorkloadSpec,
};
use clanbft_profiler as prof;
use clanbft_rbc::{
    echo_statement, BytesPayload, ClanTopology, EngineConfig, RbcEvent, RbcMsg, RbcPacket,
    TribePayload, TribeRbc,
};
use clanbft_simnet::cost::CostModel;
use clanbft_simnet::protocol::{Ctx, Protocol};
use clanbft_telemetry::Telemetry;
use clanbft_types::{Block, Encode, Micros, PartyId, Round, TribeParams, Vertex, VertexRef};
use std::alloc::{GlobalAlloc, Layout};
use std::cell::Cell;
use std::sync::{Arc, Mutex};

#[global_allocator]
static ALLOC: Live = Live;

/// The counting allocator, and beside it this thread's live bytes as a
/// signed sum: the profiler's own live counter saturates at zero, so it
/// cannot say what a window freed of what was allocated before it.
struct Live;

thread_local! {
    static LIVE: Cell<i64> = const { Cell::new(0) };
}

/// This thread's live bytes: allocated less freed, since it started.
fn live_bytes() -> i64 {
    LIVE.with(Cell::get)
}

fn add_live(delta: i64) {
    let _ = LIVE.try_with(|live| live.set(live.get() + delta));
}

// SAFETY: every method forwards to the profiler's counting allocator
// verbatim; the extra work is a thread-local `Cell` update that neither
// allocates nor panics.
unsafe impl GlobalAlloc for Live {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = prof::CountingAlloc.alloc(layout);
        if !p.is_null() {
            add_live(layout.size() as i64);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = prof::CountingAlloc.alloc_zeroed(layout);
        if !p.is_null() {
            add_live(layout.size() as i64);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        prof::CountingAlloc.dealloc(ptr, layout);
        add_live(-(layout.size() as i64));
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = prof::CountingAlloc.realloc(ptr, layout, new_size);
        if !p.is_null() {
            add_live(new_size as i64 - layout.size() as i64);
        }
        p
    }
}

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
    node_with(4, me, |_| {})
}

/// Party `me` of a whole-tribe clan of `n`, free of charge and taking
/// signatures on trust, its configuration adjusted by `tweak`.
fn node_with(n: usize, me: u32, tweak: impl FnOnce(&mut NodeConfig)) -> (SailfishNode, CostModel) {
    let topology = Arc::new(ClanTopology::whole_tribe(TribeParams::new(n)));
    let mut cfg = NodeConfig::new(PartyId(me), topology);
    cfg.cost = CostModel::free();
    cfg.verify_sigs = false;
    tweak(&mut cfg);
    let cost = cfg.cost;
    let auth = auths(n).swap_remove(me as usize);
    (SailfishNode::new(cfg, auth), cost)
}

fn deliver(node: &mut SailfishNode, cost: &CostModel, from: u32, msg: ConsensusMsg) {
    let mut ctx = Ctx::new(PartyId(0), Micros(1), cost);
    node.on_message(PartyId(from), msg, &mut ctx);
}

/// A vertex (all four strong edges, so no certificate is needed) with its
/// empty block, claiming `(round, source)`.
fn merged(round: Round, source: PartyId) -> MergedPayload {
    let strong = refs(Round(round.0 - 1), 0..4);
    merged_with(round, source, strong, vec![])
}

fn refs(round: Round, sources: impl IntoIterator<Item = u32>) -> Vec<VertexRef> {
    let source = |s| VertexRef {
        round,
        source: PartyId(s),
    };
    sources.into_iter().map(source).collect()
}

/// A vertex with the given edges and its empty block.
fn merged_with(
    round: Round,
    source: PartyId,
    strong_edges: Vec<VertexRef>,
    weak_edges: Vec<VertexRef>,
) -> MergedPayload {
    let block = Block::empty(source, round);
    let vertex = Vertex {
        round,
        source,
        block_digest: block.digest(),
        block_bytes: block.encoded_len() as u64,
        block_tx_count: 0,
        strong_edges,
        weak_edges,
        nvc: None,
        tc: None,
    };
    MergedPayload {
        vertex: vertex.into(),
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
    broadcast_in(node, cost, Round(1), source, payload);
}

/// [`broadcast_to`] in `source`'s instance of any round.
fn broadcast_in(
    node: &mut SailfishNode,
    cost: &CostModel,
    round: Round,
    source: u32,
    payload: MergedPayload,
) {
    let digest = payload.rbc_digest();
    let instance = |msg| rbc(PartyId(source), round, msg);
    deliver(node, cost, source, instance(RbcMsg::Val(payload)));
    for from in 1..4 {
        let sig = Some(Signature([7; 64]));
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
        sig: Some(sig),
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
        // A vertex of a far round, or naming no party, sent through a
        // legitimate instance: refused where the view is accepted.
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
fn state_reply_entries_with_wild_numbers_are_refused_or_stored_once() {
    let _guard = PROFILER.lock().unwrap_or_else(|e| e.into_inner());
    let (mut node, cost) = node(0);
    // A restart opens a state transfer (from round 0 on this fresh node).
    let mut ctx = Ctx::new(PartyId(0), Micros(1), &cost);
    node.on_start(&mut ctx);
    node.on_restart(&mut ctx);
    let far = Arc::clone(merged(FAR, PartyId(2)).vertex.arc());
    let foreign = Arc::clone(merged(Round(1), NOBODY).vertex.arc());
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
            let reply = ConsensusMsg::StateReply {
                from_round: Round(0),
                vertices: vec![Arc::clone(&far), Arc::clone(&foreign)],
                committed: vec![wild_commit.clone()],
            };
            deliver(&mut node, &cost, from, reply);
        }
    });
    assert!(
        count < 200 && bytes < 64 * 1024,
        "{count} allocations, {bytes} bytes for two state replies"
    );
    assert!(node.committed_log.is_empty(), "a gap is not adopted");
    assert_eq!(node.commit_seq_base(), 0);
}

// --- deliveries that change nothing -------------------------------------------

/// At node level (`SailfishNode::on_message_ref`, simulator side included up
/// to the context) what follows certification in a benign instance — the 17
/// echoes past the quorum and the 49 certificates the other parties forward,
/// two deliveries in three — allocates nothing and queues nothing.
#[test]
fn deliveries_after_certification_allocate_and_queue_nothing_at_node_level() {
    let _guard = PROFILER.lock().unwrap_or_else(|e| e.into_inner());
    let (mut node, cost) = node_with(N, 1, |_| {});
    let quorum = TribeParams::new(N).quorum();
    // Party 0's genesis vertex: no parents, so it goes live on delivery.
    let payload = merged_with(Round(0), PartyId(0), vec![], vec![]);
    let digest = payload.rbc_digest();
    let instance = |msg| rbc(PartyId(0), Round(0), msg);
    let sig = Some(Signature([7; 64]));
    let mut echoes = (0..N as u32).map(|from| (from, instance(RbcMsg::Echo { digest, sig })));
    // Hands `msg` to the node; returns what the handler queued.
    let hand = |node: &mut SailfishNode, from: u32, msg: &ConsensusMsg| {
        let mut ctx = Ctx::new(PartyId(1), Micros(1), &cost);
        node.on_message_ref(PartyId(from), msg, &mut ctx);
        (ctx.take_outbox(), ctx.take_timers())
    };
    hand(&mut node, 0, &instance(RbcMsg::Val(payload)));
    let mut cert = None;
    for (from, echo) in echoes.by_ref().take(quorum) {
        let (sent, _) = hand(&mut node, from, &echo);
        cert = cert.or(sent.into_iter().find_map(|(_, msg)| match msg {
            ConsensusMsg::Rbc(RbcPacket {
                msg: RbcMsg::EchoCert { cert, .. },
                ..
            }) => Some(cert),
            _ => None,
        }));
    }
    let cert = cert.expect("the quorum's last echo formed the certificate");
    let late: Vec<(u32, ConsensusMsg)> = echoes
        .chain((2..N as u32).chain([0]).map(|from| {
            let cert = Arc::clone(&cert);
            (from, instance(RbcMsg::EchoCert { digest, cert }))
        }))
        .collect();
    assert_eq!(late.len(), N - quorum + N - 1);

    // The profiler's own bookkeeping for a window with one refused packet.
    let stale = rbc(PartyId(0), Round(u64::MAX), RbcMsg::Pull { digest });
    let (floor, _) = allocations_in(|| {
        hand(&mut node, 2, &stale);
    });
    let mut queued = 0;
    let (count, _) = allocations_in(|| {
        for (from, msg) in &late {
            let (sent, timers) = hand(&mut node, *from, msg);
            queued += sent.len() + timers.len();
        }
    });
    assert_eq!(count - floor, 0, "allocations after certification");
    assert_eq!(queued, 0, "messages or timers after certification");
    assert!(node.evidence().is_empty());
}

/// Round-completeness can change outside a broadcast-layer effect in one
/// place: a vote completes a commit, the commit's garbage collection raises
/// the horizon past the parent a pending vertex was waiting for, and that
/// vertex completes the current round. The round must advance in that same
/// handler — no later delivery can be relied on to notice, since one that
/// changes nothing returns without looking.
#[test]
fn a_vote_whose_commit_releases_the_rounds_last_vertex_advances_the_round() {
    // Party 0 of four; leaders are P1, P2, P3 for rounds 0, 1, 2; nothing
    // older than the last committed leader round is kept.
    let (mut node, cost) = node_with(4, 0, |cfg| {
        cfg.schedule_seed = 1;
        cfg.gc_depth = Some(0);
    });
    let mut ctx = Ctx::new(PartyId(0), Micros(1), &cost);
    node.on_start(&mut ctx);
    // Rounds 0 and 1 complete on the vertices of parties 1, 2 and 3 (this
    // party's own are never delivered back to it).
    let mut leader_of_round_1 = None;
    for round in [Round(0), Round(1)] {
        for source in 1..4 {
            let strong = round.prev().map_or(vec![], |prev| refs(prev, 1..4));
            let payload = merged_with(round, PartyId(source), strong, vec![]);
            if (round, source) == (Round(1), 2) {
                leader_of_round_1 = Some(payload.rbc_digest());
            }
            broadcast_in(&mut node, &cost, round, source, payload);
        }
    }
    assert_eq!(node.round(), Round(2));
    // Round 2: two vertices go live; the third — the leader's — also cites
    // this party's round-0 vertex, which this node never received: pending.
    for source in 1..4 {
        let weak = if source == 3 {
            refs(Round(0), [0])
        } else {
            vec![]
        };
        let payload = merged_with(Round(2), PartyId(source), refs(Round(1), 1..4), weak);
        broadcast_in(&mut node, &cost, Round(2), source, payload);
    }
    assert_eq!(node.round(), Round(2), "two live vertices are no quorum");
    // Votes for round 1's leader: the third commits it, which collects
    // round 0, which releases the pending vertex, which completes round 2.
    let vote = ConsensusMsg::Vote {
        round: Round(1),
        vertex_id: leader_of_round_1.expect("built above"),
        sig: Signature([7; 64]),
    };
    for from in [1, 2] {
        deliver(&mut node, &cost, from, vote.clone());
    }
    assert!(node.committed_log.is_empty());
    assert_eq!(node.round(), Round(2));
    let mut ctx = Ctx::new(PartyId(0), Micros(1), &cost);
    node.on_message(PartyId(3), vote, &mut ctx);
    assert!(!node.committed_log.is_empty(), "the third vote commits");
    assert_eq!(node.round(), Round(3), "and the round advances with it");
    let proposed = ctx.take_outbox().into_iter().any(|(_, msg)| {
        matches!(
            msg,
            ConsensusMsg::Rbc(RbcPacket {
                round: Round(3),
                msg: RbcMsg::Val(_),
                ..
            })
        )
    });
    assert!(proposed, "round 3's proposal leaves in the vote's handler");
}

// --- one benign instance ----------------------------------------------------

const N: usize = 50;

struct Engine<'a> {
    rbc: TribeRbc<BytesPayload>,
    auths: Vec<Arc<Authenticator>>,
    /// The one context every delivery queues on, drained between rounds the
    /// way the simulator recycles its buffers between handlers.
    ctx: Ctx<'a, RbcPacket<BytesPayload>>,
    /// The engine's events, taken after each delivery.
    events: Vec<RbcEvent>,
}

impl Engine<'_> {
    fn handle(&mut self, from: usize, round: u64, msg: RbcMsg<BytesPayload>) {
        self.handle_of(0, from, round, msg);
    }

    /// Delivers `msg` of `source`'s instance.
    fn handle_of(&mut self, source: usize, from: usize, round: u64, msg: RbcMsg<BytesPayload>) {
        let packet = RbcPacket {
            source: PartyId(source as u32),
            round: Round(round),
            msg,
        };
        self.rbc
            .handle(PartyId(from as u32), &packet, &mut self.ctx);
        self.rbc.take_events(&mut self.events);
    }

    fn echo(&self, from: usize, round: u64, digest: Digest) -> RbcMsg<BytesPayload> {
        self.echo_of(0, from, round, digest)
    }

    /// `from`'s echo of `digest` in `source`'s instance.
    fn echo_of(
        &self,
        source: usize,
        from: usize,
        round: u64,
        digest: Digest,
    ) -> RbcMsg<BytesPayload> {
        let statement = echo_statement(PartyId(source as u32), Round(round), &digest);
        let sig = self.auths[from].sign_digest(&statement);
        RbcMsg::Echo {
            digest,
            sig: Some(sig),
        }
    }
}

/// What the profiler itself allocates, `(allocations, bytes)`, for a window
/// in which `rbc.handle` runs: a packet the admission gate refuses
/// allocates nothing else.
fn window_floor(engine: &mut Engine) -> (u64, u64) {
    let stale = RbcMsg::Pull {
        digest: Digest::ZERO,
    };
    allocations_in(|| engine.handle(1, u64::MAX, stale))
}

#[test]
fn a_benign_instance_costs_a_handful_of_allocations_and_none_once_certified() {
    let _guard = PROFILER.lock().unwrap_or_else(|e| e.into_inner());
    let topology = Arc::new(ClanTopology::whole_tribe(TribeParams::new(N)));
    let auths = auths(N);
    let cost = CostModel::free();
    let cfg = EngineConfig::new(PartyId(1), topology, cost);
    let mut engine = Engine {
        rbc: TribeRbc::signed(cfg, Arc::clone(&auths[1])),
        auths,
        ctx: Ctx::new(PartyId(1), Micros(1), &cost),
        events: Vec::new(),
    };
    let payload = BytesPayload::new(vec![0x42; 512]);
    let digest = payload.rbc_digest();
    let quorum = TribeParams::new(N).quorum();
    // Round 1 warms the window (the row table, the context's queues) the
    // way any earlier round does; round 2 is measured.
    for round in [1, 2] {
        let messages: Vec<(usize, RbcMsg<BytesPayload>)> =
            std::iter::once((0, RbcMsg::Val(payload.clone())))
                .chain((0..N).map(|from| (from, engine.echo(from, round, digest))))
                .collect();
        let floor = window_floor(&mut engine);
        // VAL and the echoes up to the quorum: this party echoes, forms the
        // certificate and delivers.
        let mut messages = messages.into_iter();
        let live = live_bytes();
        let (count, bytes) = allocations_in(|| {
            for (from, msg) in messages.by_ref().take(1 + quorum) {
                engine.handle(from, round, msg);
            }
        });
        let live = live_bytes() - live;
        let delivered = engine
            .events
            .iter()
            .any(|e| matches!(e, RbcEvent::DeliverFull { .. }));
        assert!(delivered, "round {round} delivered at the quorum");
        let cert = engine
            .ctx
            .take_outbox()
            .into_iter()
            .find_map(|(_, p)| match p.msg {
                RbcMsg::EchoCert { cert, .. } => Some(cert),
                _ => None,
            })
            .expect("certificate formed");
        engine.events.clear();
        if round == 2 {
            // The row's two blocks (what its instances keep, what they
            // vote with), the cold part, the echo's signature and the
            // certificate (signer set, shared handle): 6 of the engine's
            // own, and 1 of the profiler's, whose scope table grows to eight
            // nodes for the window's fifth, `crypto.verify` (each share is
            // checked as it arrives; 6 and 10 048 bytes unchecked). Before
            // the shares were folded in place, a 2 376-B share buffer and a
            // certificate of sorted shares and signatures made it 9 and
            // 14 720. A row in one block made it one fewer, a fresh event
            // list per take 9 more, a packet buffer of the engine's own 10
            // and a boxed instance with heap bit sets 20. Neither a pull
            // record nor a spill box. The row's 50 instances each grew by
            // the slot a delivered view is kept in (48 B for this payload).
            let made = (count - floor.0, bytes - floor.1);
            assert_eq!(made, (7, 10_688), "(allocations, bytes)");
            // What stays live once the instance has delivered: the row and
            // the certificate's 120 bytes (the handle's 112 and the signer
            // set's 8; 2 192 when it held every signature). The fold went
            // into the certificate, and the cold part (296 B here) went at
            // delivery. When it stayed, the window left 9 648 bytes live: a
            // 7 200-B row, the certificate and the cold part.
            assert_eq!(engine.rbc.buffer_stats().cold_records, 0);
            let row = N * TribeRbc::<BytesPayload>::INSTANCE_BYTES;
            assert_eq!(live, (row + 120) as i64, "live bytes");
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
        assert_eq!(count - floor.0, 0, "allocations after certification");
        assert!(engine.ctx.take_outbox().is_empty() && engine.events.is_empty());
    }
}

#[test]
fn folding_a_settled_row_allocates_nothing_and_frees_the_vote_block() {
    let _guard = PROFILER.lock().unwrap_or_else(|e| e.into_inner());
    let topology = Arc::new(ClanTopology::whole_tribe(TribeParams::new(N)));
    let auths = auths(N);
    let cost = CostModel::free();
    let cfg = EngineConfig::new(PartyId(1), topology, cost);
    let mut engine = Engine {
        rbc: TribeRbc::signed(cfg, Arc::clone(&auths[1])),
        auths,
        ctx: Ctx::new(PartyId(1), Micros(1), &cost),
        events: Vec::new(),
    };
    // Every source's VAL and all N echoes, but for the last source's last
    // echo: each instance delivers at its quorum, and all but the last
    // settle.
    for source in 0..N {
        let payload = BytesPayload::new(vec![source as u8; 512]);
        let digest = payload.rbc_digest();
        engine.handle_of(source, source, 1, RbcMsg::Val(payload));
        for from in 0..N {
            if (source, from) != (N - 1, N - 1) {
                let echo = engine.echo_of(source, from, 1, digest);
                engine.handle_of(source, from, 1, echo);
            }
        }
        engine.ctx.take_outbox();
        engine.events.clear();
    }
    assert_eq!(engine.rbc.buffer_stats().settled_rows, 0);
    let payloads = |rbc: &TribeRbc<BytesPayload>| -> Vec<*const BytesPayload> {
        let payload = |source| rbc.payload(Round(1), PartyId(source as u32));
        (0..N)
            .map(|s| payload(s).expect("delivered") as *const _)
            .collect()
    };
    let before = payloads(&engine.rbc);
    // The last echo settles the last instance, and with it the row: its
    // vote block of N records is freed, and nothing is allocated.
    let digest = BytesPayload::new(vec![(N - 1) as u8; 512]).rbc_digest();
    let echo = engine.echo_of(N - 1, N - 1, 1, digest);
    let floor = window_floor(&mut engine);
    let live = live_bytes();
    let (count, bytes) = allocations_in(|| engine.handle_of(N - 1, N - 1, 1, echo));
    let live = live_bytes() - live;
    assert_eq!((count - floor.0, bytes - floor.1), (0, 0));
    let votes = TribeRbc::<BytesPayload>::INSTANCE_BYTES - TribeRbc::<BytesPayload>::SETTLED_BYTES;
    assert_eq!(live, -((N * votes) as i64), "live bytes");
    assert_eq!(engine.rbc.buffer_stats().settled_rows, 1);
    assert!(engine.ctx.take_outbox().is_empty() && engine.events.is_empty());
    // No record moved: every delivered payload reads at its old address.
    assert_eq!(payloads(&engine.rbc), before);
    // Every source reads as certified: a certificate for any of them is
    // dropped on the row's certified set before it is verified.
    for source in 0..N {
        let payload = BytesPayload::new(vec![source as u8; 512]);
        let statement = echo_statement(PartyId(source as u32), Round(1), &payload.rbc_digest());
        let shares: Vec<_> = (0..N)
            .map(|i| (i, engine.auths[i].sign_digest(&statement)))
            .collect();
        let cert = Arc::new(AggregateSignature::aggregate(N, &shares));
        let msg = RbcMsg::EchoCert {
            digest: payload.rbc_digest(),
            cert,
        };
        let (count, _) = allocations_in(|| engine.handle_of(source, (source + 1) % N, 1, msg));
        assert_eq!(
            count - floor.0,
            0,
            "allocations of source {source}'s certificate"
        );
    }
    assert!(engine.ctx.take_outbox().is_empty() && engine.events.is_empty());
}

// --- the client ingress -----------------------------------------------------

/// A pool record stays 32 bytes: it stands for a run of transactions.
const _: () = assert!(std::mem::size_of::<PendingTx>() == 32);

/// One proposal cycle of an ingress the way a proposer drives it: arrivals
/// over the cycle, the sizer's pull, the batch plan, the binding to the
/// proposed vertex and that vertex's commit. Returns the runs queued before
/// the pull and the runs it pulled.
fn ingress_cycle(ing: &mut ClientIngress, cycle: u64) -> (usize, usize) {
    let from = Micros::from_millis(100 * cycle);
    let to = Micros::from_millis(100 * (cycle + 1));
    ing.poll(from, to, cycle);
    let queued = ing.pool().queued_runs();
    let pulled = ing.pull(to, to.saturating_sub(from));
    let runs = pulled.len();
    std::hint::black_box(plan_batches(pulled, 16));
    let vref = VertexRef {
        round: Round(cycle),
        source: PartyId(0),
    };
    ing.note_proposed(vref);
    ing.on_committed(vref, to);
    (queued, runs)
}

#[test]
fn an_open_loop_proposal_cycle_allocates_per_proposal_not_per_arrival() {
    let _guard = PROFILER.lock().unwrap_or_else(|e| e.into_inner());
    // Allocations of one steady cycle of an ingress whose cycles each see
    // `per_cycle` arrivals over 64 clients and drain them all.
    let steady = |per_cycle: u32| {
        let drain_all = SizerConfig {
            min_batch: 1 << 16,
            max_batch: 1 << 16,
            initial_batch: 1 << 16,
        };
        let workload = WorkloadSpec::OpenLoop {
            rate_tps: f64::from(per_cycle) * 10.0,
            clients: 64,
            zipf_s: 0.0,
            stop_at_round: u64::MAX,
        };
        let pool = MempoolConfig::default();
        let mut ing = ClientIngress::new(workload, 512, pool, drain_all, 3, Telemetry::null());
        // The warm-up grows the queue, the client table and the in-flight map.
        ingress_cycle(&mut ing, 0);
        // A window of two cycles less a window of one: one cycle without the
        // profiler's first-entry bookkeeping for its scopes.
        let (one, _) = allocations_in(|| {
            ingress_cycle(&mut ing, 1);
        });
        let (two, _) = allocations_in(|| {
            ingress_cycle(&mut ing, 2);
            ingress_cycle(&mut ing, 3);
        });
        assert_eq!(ing.pool().stats().pulled, ing.pool().stats().admitted);
        assert_eq!(ing.in_flight_txs(), 0);
        two - one
    };
    // Two per proposal, each sized once: the pull and the plan. An open-loop
    // vertex keeps a count of what it carries, not a list.
    assert_eq!(steady(1_000), 2);
    assert_eq!(steady(4_000), 2);
}

#[test]
fn a_synthetic_proposal_is_four_runs_wherever_it_sits() {
    let _guard = PROFILER.lock().unwrap_or_else(|e| e.into_inner());
    let workload = WorkloadSpec::Synthetic {
        txs_per_proposal: 4_000,
    };
    let (pool, sizer) = (MempoolConfig::default(), SizerConfig::default());
    let mut ing = ClientIngress::new(workload, 512, pool, sizer, 3, Telemetry::null());
    // The warm-up grows the queue (to four runs), the client table and the
    // in-flight map.
    assert_eq!(ingress_cycle(&mut ing, 0), (4, 4));
    let mut cycles = Vec::with_capacity(3);
    let (_, one) = allocations_in(|| cycles.push(ingress_cycle(&mut ing, 1)));
    let (_, two) = allocations_in(|| {
        cycles.push(ingress_cycle(&mut ing, 2));
        cycles.push(ingress_cycle(&mut ing, 3));
    });
    // Each cycle queues the client's 4 000 transactions as one run per
    // arrival stamp and pulls those four records.
    assert_eq!(cycles, vec![(4, 4); 3]);
    assert_eq!(ing.pool().stats().pulled, 16_000);
    assert!(ing.pool().is_empty());
    // The pull's four runs and the plan's four batches: no allocation is
    // sized by the transactions.
    assert!(two - one < 1024, "{} bytes in one steady cycle", two - one);
}

#[test]
fn a_refused_client_id_allocates_nothing() {
    let _guard = PROFILER.lock().unwrap_or_else(|e| e.into_inner());
    let mut pool = Mempool::new(MempoolConfig::default(), Telemetry::null());
    let far = Submission {
        client: ClientId(u64::MAX),
        seq: 0,
        tx_bytes: 512,
        lane: Lane::Normal,
    };
    let floor = allocations_in(|| {}).0;
    let (count, _) = allocations_in(|| {
        let refused = pool.admit(far, Micros(1));
        assert_eq!(refused, Err(AdmitError::ClientTableFull));
    });
    assert_eq!(count, floor, "a refused id grows nothing");
    assert_eq!(pool.tracked_clients(), 0);
}
