//! The Sailfish node: one state machine for all three evaluated protocols.
//!
//! Lifecycle of a round `r` at an honest node:
//!
//! 1. On entering `r`, propose: build the block (workload batches, or empty
//!    for non-proposers), build the vertex (strong edges to every live
//!    round-`r−1` vertex, weak edges to late arrivals, TC/NVC if the
//!    previous leader vertex is missing), and broadcast both through the
//!    merged tribe-assisted RBC. Arm the round timer.
//! 2. On RBC certification/delivery of a vertex: validate its shape and
//!    leader-edge rule, insert it into the DAG (buffering until causal
//!    completeness), and if it is the round leader's vertex, multicast a
//!    leader vote (unless this node already announced a timeout).
//! 3. `2f+1` votes commit the leader vertex directly; the leader chain is
//!    resolved backward through strong paths and the causal history is
//!    emitted in deterministic order (`a_deliver`, `order_decision`). The
//!    decision is one WAL record, its leader round, durable before its first
//!    vertex folds; each vertex then takes the state step (`fold_commit`,
//!    which adoption and WAL replay share) and the emit step (`emit_commit`,
//!    which replay skips). GC prunes at `last_committed − gc_depth`
//!    (`prune_to_horizon`); replay re-runs both functions.
//! 4. Advance to `r+1` once `2f+1` round-`r` vertices are live including
//!    the leader's — or a timeout certificate replaces it.
//!
//! What the rules read about a round (votes, timeout announcements, the
//! TC/NVC, this node's own vote or no-vote) is one [`RoundState`] per round
//! in a window from the DAG's horizon on, so GC drops all of it in one call.
//!
//! Block payloads trail metadata by design: ordering and progress never
//! wait for block downloads (paper §5); execution does.

use crate::config::NodeConfig;
use crate::execution::Executor;
use crate::messages::{vote_digest, ConsensusMsg};
use crate::payload::MergedPayload;
use crate::schedule::LeaderSchedule;
use crate::trackers::{RoundState, VoteOutcome};
use clanbft_crypto::{Authenticator, Digest};
use clanbft_dag::{order, Dag, InsertOutcome};
use clanbft_mempool::{plan_batches, ClientIngress, MempoolConfig, SizerConfig, WorkloadSpec};
use clanbft_rbc::{parse_retry_token, EngineConfig, RbcEvent, TribeRbc, ROUND_WINDOW};
use clanbft_simnet::protocol::{Ctx, Protocol};
use clanbft_telemetry::{counters, Event};
use clanbft_types::certs::{NoVote, RoundCert, Statement, TimedOut};
use clanbft_types::{
    Block, Encode, Evidence, Micros, PartyId, Round, RoundWindow, TxBatch, Vertex, VertexRef,
};
use std::collections::{BTreeSet, HashSet, VecDeque};
use std::sync::Arc;

/// One entry of the emitted total order (`a_deliver`).
#[derive(Clone, Debug)]
pub struct CommittedVertex {
    /// Position in the total order.
    pub sequence: u64,
    /// The ordered vertex.
    pub vertex: VertexRef,
    /// Digest of its block.
    pub block_digest: Digest,
    /// Declared block size on the wire.
    pub block_bytes: u64,
    /// Transactions in the block.
    pub block_tx_count: u64,
    /// When this node committed it.
    pub committed_at: Micros,
    /// The leader round whose commit swept this vertex in (needed to serve
    /// the committed-order suffix during peer state transfer).
    pub leader_round: Round,
}

/// Batch metadata remembered at proposal time, for latency metrics.
#[derive(Clone, Debug)]
pub struct ProposedBatch {
    /// The proposing vertex.
    pub vertex: VertexRef,
    /// Creation timestamp of the batch.
    pub created_at: Micros,
    /// Transactions in the batch.
    pub count: u32,
}

/// At most this many evidence records are retained per node — enough for
/// any audit while bounding what an equivocation storm can allocate.
const EVIDENCE_CAP: usize = 256;

/// The Sailfish / single-clan / multi-clan node.
///
/// Fields are `pub(crate)` where the recovery layer ([`crate::recovery`])
/// rebuilds or serves them.
pub struct SailfishNode {
    pub(crate) cfg: NodeConfig,
    pub(crate) schedule: LeaderSchedule,
    pub(crate) auth: Arc<Authenticator>,
    pub(crate) rbc: TribeRbc<MergedPayload>,
    /// Where `flush` takes the engine's events (empty between calls).
    rbc_events: Vec<RbcEvent>,
    pub(crate) dag: Dag,
    /// Votes, timeout announcements, certificates and this node's own vote
    /// or no-vote, one record per round; the window's base is the horizon.
    pub(crate) rounds: RoundWindow<RoundState>,

    pub(crate) current_round: Round,
    pub(crate) stopped_proposing: bool,

    /// Misbehaviour proof records observed by this node (capped).
    pub(crate) evidence: Vec<Evidence>,
    /// `(round, culprit)` pairs already evidenced — one record per pair.
    pub(crate) evidence_keys: HashSet<(Round, PartyId)>,

    /// Vertices that may still need a weak edge from this node: they went
    /// live after the proposal that could have strong-edged them. Each
    /// proposal drops the ones it reaches anyway, the ordered and the
    /// collected (`Dag::weak_edges`), so what stays is bounded by the
    /// unordered frontier whether or not garbage collection runs.
    late_arrivals: BTreeSet<VertexRef>,

    pub(crate) last_committed: Option<Round>,
    /// The emitted total order.
    pub committed_log: Vec<CommittedVertex>,
    /// Proposal-time batch metadata (for the metrics layer).
    pub proposed_batches: Vec<ProposedBatch>,

    /// Execution layer (when enabled): ordered vertices awaiting their
    /// block, and the executor folding them into the state root. GC of the
    /// broadcast window, which holds the blocks, stops at its front.
    exec_queue: VecDeque<VertexRef>,
    /// The executor, if execution is enabled.
    pub executor: Option<Executor>,

    /// Client ingress: workload generator, bounded mempool and dynamic
    /// batch sizer (`None` for non-proposers and zero-workload runs).
    pub(crate) ingress: Option<ClientIngress>,

    pub(crate) next_seq: u64,
    pub(crate) last_proposal_at: Micros,

    // --- durability & recovery (logic in `crate::recovery`) ---
    /// WAL + checkpoint store (`None` = memory-only node).
    pub(crate) storage: Option<clanbft_storage::NodeStorage>,
    /// The commit frontier: the global sequence number the next entry of
    /// the total order gets, counting the entries of previous incarnations.
    pub(crate) commit_seq: u64,
    /// Leader round at which the last checkpoint was installed.
    pub(crate) last_checkpoint_round: u64,
    /// This node's newest proposal, kept for idempotent re-broadcast after
    /// a restart (tracked only when storage is on).
    pub(crate) last_proposal: Option<clanbft_storage::ProposalEntry>,
    /// Per party: `round.0 + 1` of its newest vertex in the total order
    /// (0 = none yet) — the liveness table epoch rotation decides on.
    pub(crate) committed_round_by: Vec<u64>,
    /// Epoch-rotation decisions made so far, oldest first.
    pub(crate) epochs: Vec<clanbft_storage::EpochEntry>,
    /// In-flight post-restart state transfer (client side).
    pub(crate) catchup: Option<crate::recovery::CatchupState>,
    /// Per peer: the lowest `from_round` a state request must carry to be
    /// answered (one past the last one served; 0 = never served) — the pull
    /// rate-limit pattern applied to state transfer.
    pub(crate) next_servable_state: Vec<u64>,
    /// WAL records replayed at construction (recovery telemetry).
    pub(crate) recovered_records: u64,
    /// Whether this construction rebuilt durable state from disk.
    pub(crate) recovered: bool,
}

/// Cap on `TxBatch`es per block: pulled runs are coalesced by arrival
/// stamp, and arbitrarily fragmented stamps are merged down to this many
/// batches (earliest stamp wins, so measured latency only gets more
/// pessimistic).
const MAX_BATCHES_PER_BLOCK: usize = 16;

/// Wire size of every client transaction (the paper's 512 bytes).
const TX_BYTES: u32 = 512;

/// The client ingress a proposer fronts its proposals with (`None` for a
/// zero workload).
pub(crate) fn new_ingress(cfg: &NodeConfig) -> Option<ClientIngress> {
    let idle = WorkloadSpec::Synthetic {
        txs_per_proposal: 0,
    };
    (cfg.workload.spec() != idle).then(|| {
        ClientIngress::new(
            cfg.workload.clone(),
            TX_BYTES,
            MempoolConfig::default(),
            SizerConfig::default(),
            // Per-node arrival randomness, derived from the shared seed.
            cfg.schedule_seed ^ 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(cfg.me.idx() as u64 + 1),
            cfg.telemetry.clone(),
        )
    })
}

impl SailfishNode {
    /// Builds a node from its configuration and signing identity.
    pub fn new(cfg: NodeConfig, auth: Arc<Authenticator>) -> SailfishNode {
        let mut engine_cfg = EngineConfig::new(cfg.me, Arc::clone(&cfg.topology), cfg.cost);
        engine_cfg.telemetry = cfg.telemetry.clone();
        engine_cfg.pull_retry = cfg.pull_retry;
        let rbc =
            TribeRbc::signed(engine_cfg, Arc::clone(&auth)).with_sig_verification(cfg.verify_sigs);
        let ingress = if cfg.topology.receives_full(cfg.me, cfg.me) {
            new_ingress(&cfg)
        } else {
            None
        };
        let tribe = cfg.tribe();
        let mut node = SailfishNode {
            schedule: LeaderSchedule::new(tribe.n(), cfg.schedule_seed),
            dag: Dag::new(tribe),
            rounds: RoundWindow::default(),
            rbc,
            rbc_events: Vec::new(),
            auth,
            current_round: Round::GENESIS,
            stopped_proposing: false,
            evidence: Vec::new(),
            evidence_keys: HashSet::new(),
            late_arrivals: BTreeSet::new(),
            last_committed: None,
            committed_log: Vec::new(),
            proposed_batches: Vec::new(),
            exec_queue: VecDeque::new(),
            executor: if cfg.execute {
                Some(Executor::new())
            } else {
                None
            },
            ingress,
            next_seq: 0,
            last_proposal_at: Micros::ZERO,
            storage: None,
            commit_seq: 0,
            last_checkpoint_round: 0,
            last_proposal: None,
            committed_round_by: vec![0; tribe.n()],
            epochs: Vec::new(),
            catchup: None,
            next_servable_state: vec![0; tribe.n()],
            recovered_records: 0,
            recovered: false,
            cfg,
        };
        if let Some(dir) = node.cfg.storage_dir.clone() {
            let (storage, recovered) = clanbft_storage::NodeStorage::open(
                &dir,
                node.cfg.fsync,
                node.cfg.telemetry.clone(),
            )
            .expect("node storage must open");
            node.storage = Some(storage);
            node.rebuild_from(recovered);
        }
        node
    }

    /// Current round.
    pub fn round(&self) -> Round {
        self.current_round
    }

    /// Highest directly committed leader round.
    pub fn last_committed(&self) -> Option<Round> {
        self.last_committed
    }

    /// The leader schedule (shared by the whole tribe).
    pub fn schedule(&self) -> LeaderSchedule {
        self.schedule
    }

    /// Total transactions in this node's committed log.
    pub fn committed_txs(&self) -> u64 {
        self.committed_log.iter().map(|c| c.block_tx_count).sum()
    }

    /// This proposer's client ingress (mempool stats, sizer state,
    /// in-flight count), if it proposes a workload.
    pub fn ingress(&self) -> Option<&ClientIngress> {
        self.ingress.as_ref()
    }

    /// A block this node delivered as a member of its proposer's clan (own
    /// proposals come back by loopback), read from the broadcast engine until
    /// garbage collection passes it (`gc_depth`). An outsider's own empty
    /// block reads `None`.
    pub fn held_block(&self, vref: &VertexRef) -> Option<&Block> {
        let payload = self.rbc.payload(vref.round, vref.source)?;
        Some(&payload.block)
    }

    /// Whether this construction rebuilt durable state from disk.
    pub fn recovered(&self) -> bool {
        self.recovered
    }

    /// The global sequence number of this incarnation's first commit:
    /// everything below it was committed (and persisted) by previous lives
    /// of this node.
    pub fn commit_seq_base(&self) -> u64 {
        self.commit_seq - self.committed_log.len() as u64
    }

    /// Epoch-rotation decisions this node has made or replayed, oldest
    /// first. Deterministic across the tribe: every honest party's list
    /// agrees on any shared prefix.
    pub fn epoch_decisions(&self) -> &[clanbft_storage::EpochEntry] {
        &self.epochs
    }

    /// Occupancy of the broadcast engine's bounded buffers.
    pub fn rbc_buffers(&self) -> clanbft_rbc::BufferStats {
        self.rbc.buffer_stats()
    }

    /// Misbehaviour evidence this node has accumulated (consensus-level
    /// double votes and vote/timeout conflicts, plus RBC-level equivocation
    /// drained from the broadcast engine).
    pub fn evidence(&self) -> &[Evidence] {
        &self.evidence
    }

    /// The one intake of evidence, whoever found it: keeps `ev` unless its
    /// `(round, culprit)` is already evidenced, retains at most
    /// [`EVIDENCE_CAP`] records, and appends each retained one to the WAL —
    /// unless `replayed`, when it comes from the WAL or a checkpoint
    /// already. Checkpoints carry the retained records on, so they survive
    /// a restart. Returns whether the pair was new.
    pub(crate) fn keep_evidence(&mut self, ev: Evidence, replayed: bool) -> bool {
        if !self.evidence_keys.insert((ev.round(), ev.culprit())) {
            return false;
        }
        if self.evidence.len() < EVIDENCE_CAP {
            if !replayed {
                self.log_wal(|| clanbft_storage::WalRecord::Evidence { evidence: ev });
            }
            self.evidence.push(ev);
        }
        true
    }

    /// Records locally-detected misbehaviour: kept as [`Self::keep_evidence`]
    /// does, and counted and traced once per `(round, culprit)`.
    fn record_evidence(&mut self, ev: Evidence, now: Micros) {
        if !self.keep_evidence(ev, false) {
            return;
        }
        self.cfg.telemetry.add(counters::EVIDENCE_RECORDED, 1);
        self.cfg.telemetry.add(counters::REJECTED_EQUIVOCATION, 1);
        self.cfg.telemetry.event(
            now,
            self.cfg.me,
            Event::EvidenceRecorded {
                kind: ev.kind(),
                round: ev.round(),
                culprit: ev.culprit(),
            },
        );
    }

    /// Round-window admission for direct consensus messages: discard what is
    /// behind the GC horizon or further ahead than the bounded buffers allow
    /// ([`ROUND_WINDOW`], the same bound the broadcast engine applies).
    fn admit_round(&mut self, round: Round) -> bool {
        if round < self.dag.horizon() || round.0 > self.current_round.0.saturating_add(ROUND_WINDOW)
        {
            self.cfg.telemetry.add(counters::REJECTED_BUFFER_FULL, 1);
            return false;
        }
        true
    }

    // --- proposing ---------------------------------------------------------

    fn build_block(&mut self, round: Round, now: Micros) -> Block {
        let _prof = clanbft_profiler::scope("consensus.build_block");
        if self.stopped_proposing || !self.proposes_blocks_at(round) {
            return Block::empty(self.cfg.me, round);
        }
        // Epoch rotation can seat a party that was not a block proposer at
        // construction; its ingress comes to life with its first block.
        if self.ingress.is_none() {
            self.ensure_ingress(now);
        }
        let Some(ingress) = self.ingress.as_mut() else {
            return Block::empty(self.cfg.me, round);
        };
        // Advance simulated client arrivals over the inter-proposal gap,
        // then let the sizer decide how much of the queue this proposal
        // drains. The pulled runs are coalesced into TxBatches by arrival
        // stamp so the measured latency keeps the queueing delay real
        // clients saw.
        ingress.poll(self.last_proposal_at, now, round.0);
        let gap = now.saturating_sub(self.last_proposal_at);
        let pulled = ingress.pull(now, gap);
        let plans = plan_batches(pulled, MAX_BATCHES_PER_BLOCK);
        let mut batches = Vec::with_capacity(plans.len());
        for plan in plans {
            batches.push(TxBatch::synthetic(
                self.cfg.me,
                self.next_seq,
                plan.count,
                plan.tx_bytes,
                plan.created_at,
            ));
            self.next_seq += u64::from(plan.count);
        }
        Block::new(self.cfg.me, round, batches)
    }

    pub(crate) fn propose(&mut self, round: Round, ctx: &mut Ctx<ConsensusMsg>) {
        let _prof = clanbft_profiler::scope("consensus.propose");
        let now = ctx.now();
        if let Some(max) = self.cfg.max_round {
            if round.0 > max {
                self.stopped_proposing = true;
                return;
            }
        }
        let block = self.build_block(round, now);
        let mut strong_edges: Vec<VertexRef> = Vec::new();
        let mut weak_edges = Vec::new();
        let mut nvc = None;
        let mut tc = None;
        if let Some(prev) = round.prev() {
            strong_edges = self
                .dag
                .round_vertices(prev)
                .iter()
                .map(|v| v.reference())
                .collect();
            debug_assert!(strong_edges.len() >= self.cfg.tribe().quorum());
            let leader_ref = self.schedule.leader_vertex(prev);
            if !strong_edges.contains(&leader_ref) {
                let (tcert, nvcert) = self
                    .rounds
                    .get(prev)
                    .and_then(|state| state.certs.as_deref())
                    .expect("advanced without leader vertex implies certificates");
                if self.schedule.is_leader(self.cfg.me, round) {
                    nvc = Some(Box::new(nvcert.clone()));
                }
                tc = Some(Box::new(tcert.clone()));
            }
            // Weak edges go only where these strong edges leave no path.
            weak_edges =
                self.dag
                    .weak_edges(&strong_edges, &mut self.late_arrivals, self.cfg.tribe().f());
        }
        let vertex = Vertex {
            round,
            source: self.cfg.me,
            block_digest: block.digest(),
            block_bytes: block.encoded_len() as u64,
            block_tx_count: block.tx_count(),
            strong_edges,
            weak_edges,
            nvc,
            tc,
        };
        let vref = vertex.reference();
        for batch in &block.batches {
            self.proposed_batches.push(ProposedBatch {
                vertex: vref,
                created_at: batch.created_at,
                count: batch.count,
            });
        }
        if self.cfg.telemetry.enabled() {
            // Construction is guarded: the strong-edge Vec allocates.
            self.cfg.telemetry.event(
                now,
                self.cfg.me,
                Event::VertexProposed {
                    round,
                    tx_count: vertex.block_tx_count,
                    digest: u64::from_be_bytes(
                        vertex.block_digest.0[..8].try_into().expect("digest width"),
                    ),
                    strong: vertex.strong_edges.iter().map(|r| r.source).collect(),
                    weak: vertex.weak_edges.len() as u64,
                },
            );
        }
        let payload = MergedPayload::new(vertex, block);
        // Persist-before-send: a crash after this point re-broadcasts the
        // identical vertex on recovery (RBC dedups); a crash before it
        // proposed nothing. Either way, no equivocation.
        if self.storage.is_some() {
            let proposal = clanbft_storage::ProposalEntry {
                vertex: (*payload.vertex).clone(),
                block: (*payload.block).clone(),
            };
            self.log_wal(|| clanbft_storage::WalRecord::Proposed {
                proposal: proposal.clone(),
            });
            self.last_proposal = Some(proposal);
        }
        self.rbc.broadcast(round, payload, ctx);
        if let Some(ingress) = self.ingress.as_mut() {
            ingress.note_proposed(vref);
        }
        self.last_proposal_at = now;
    }

    // --- vertex intake ------------------------------------------------------

    /// Validates and accepts a delivered vertex; idempotent. `id` is the
    /// vertex id as the broadcast layer computed it when it accepted the
    /// vertex (each node hashes a vertex once); a leader vote goes on `ctx`.
    fn process_vertex(
        &mut self,
        vertex: Arc<Vertex>,
        id: Digest,
        charge: &mut Micros,
        ctx: &mut Ctx<ConsensusMsg>,
    ) {
        let _prof = clanbft_profiler::scope("consensus.process_vertex");
        let vref = vertex.reference();
        if self.dag.is_known(&vref) {
            return;
        }
        if !self.validate_vertex(&vertex, charge) {
            return;
        }
        let edges = vertex.strong_edges.len() + vertex.weak_edges.len();
        *charge += self.cfg.cost.db_reads(edges) + self.cfg.cost.db_write();
        debug_assert_eq!(id, vertex.id());
        self.log_wal(|| clanbft_storage::WalRecord::Accepted {
            vertex: (*vertex).clone(),
        });

        // Leader vote (Sailfish's 1δ commit step). Every vertex below the
        // horizon is known, so the round is in the window.
        let round = vref.round;
        let state = self.rounds.touch(round).expect("in the window");
        if self.schedule.leader_vertex(round) == vref && !state.voted && !state.no_voted {
            state.voted = true;
            // Persist the vote before signing: a recovered node must never
            // vote twice, nor vote after having announced a timeout.
            self.log_wal(|| clanbft_storage::WalRecord::Voted { round });
            *charge += self.cfg.cost.sign();
            let sig = self.auth.sign_digest(&vote_digest(round, &id));
            let vote = ConsensusMsg::Vote {
                round,
                vertex_id: id,
                sig,
            };
            // Votes go to everyone, ourselves included (loopback).
            ctx.multicast(self.cfg.tribe().parties(), vote);
        }

        match self.dag.insert_shared(vertex, Some(id)) {
            InsertOutcome::Live(new_live) => self.on_live(new_live, ctx.now()),
            InsertOutcome::Pending => {
                self.cfg.telemetry.event(
                    ctx.now() + *charge,
                    self.cfg.me,
                    Event::DagBuffered {
                        round: vref.round,
                        source: vref.source,
                    },
                );
            }
            InsertOutcome::Duplicate => {}
        }
    }

    /// Vertices became live — through an insert, or because garbage
    /// collection raised the horizon past the last parent they were waiting
    /// for: remember the ones a proposal can no longer cite, and retry the
    /// commit of any leader among them.
    pub(crate) fn on_live(&mut self, new_live: Vec<VertexRef>, now: Micros) {
        for live_ref in new_live {
            // Round entry and proposal are atomic (`try_advance`), so every
            // round <= current_round has already chosen its strong edges: a
            // vertex going live now missed the proposal that could have
            // referenced it whenever `round.next() <= current_round`, not
            // just `<`. It becomes a weak-edge candidate; whether it needs
            // the edge (nobody else's vertex on our path cites it) is the
            // next proposal's question.
            if live_ref.round.next() <= self.current_round {
                self.late_arrivals.insert(live_ref);
            }
            // A leader vertex becoming live may complete a pending vote
            // quorum.
            if self.schedule.leader_vertex(live_ref.round) == live_ref {
                self.try_commit(live_ref.round, now);
            }
        }
    }

    /// Structural and leader-edge validation (paper Fig. 4 rules).
    fn validate_vertex(&mut self, vertex: &Vertex, charge: &mut Micros) -> bool {
        if vertex.validate_shape(self.cfg.tribe()).is_err() {
            return false;
        }
        let Some(prev) = vertex.round.prev() else {
            return true;
        };
        let leader_ref = self.schedule.leader_vertex(prev);
        if vertex.has_strong_edge_to(&leader_ref) {
            return true;
        }
        // Missing leader edge needs justification: NVC for the next leader's
        // vertex, TC for everyone else's.
        if self.schedule.leader_vertex(vertex.round) == vertex.reference() {
            self.justifies(vertex.nvc.as_deref(), prev, charge)
        } else {
            self.justifies(vertex.tc.as_deref(), prev, charge)
        }
    }

    /// Whether `cert` is a quorum certificate for round `prev`.
    fn justifies<S: Statement>(
        &self,
        cert: Option<&RoundCert<S>>,
        prev: Round,
        charge: &mut Micros,
    ) -> bool {
        let Some(cert) = cert else { return false };
        *charge += self.cfg.cost.agg_verify(cert.agg.count());
        let quorum = self.cfg.tribe().quorum();
        let signed = || cert.verify(self.auth.registry(), quorum);
        cert.round == prev && cert.agg.count() >= quorum && (!self.cfg.verify_sigs || signed())
    }

    // --- commit and ordering -----------------------------------------------

    pub(crate) fn try_commit(&mut self, round: Round, now: Micros) {
        let _prof = clanbft_profiler::scope("consensus.try_commit");
        // While a state transfer is in flight the commit cursor is not yet
        // aligned with the tribe's: emitting now could assign sequences the
        // tribe gave to other vertices. Ordering resumes when the transfer
        // settles (`finish_catchup` replays the suppressed attempts).
        if self.catchup.is_some() {
            return;
        }
        if self.last_committed.is_some_and(|lc| round <= lc) {
            return;
        }
        let leader_ref = self.schedule.leader_vertex(round);
        let Some(id) = self.dag.id_of(&leader_ref) else {
            return; // Not live yet.
        };
        let state = self.rounds.get(round);
        if state.map_or(0, |s| s.vote_count(&id)) < self.cfg.tribe().quorum() {
            return;
        }
        // Direct commit — durable as one decision before its first vertex
        // folds.
        let vertices = self.order_decision(round);
        self.log_wal(|| clanbft_storage::WalRecord::Committed {
            leader_round: round,
        });
        for vref in vertices {
            let (sequence, rotated) = self.fold_commit(vref, round);
            let v = self.dag.get(&vref).expect("only live vertices are ordered");
            let entry = CommittedVertex {
                sequence,
                vertex: vref,
                block_digest: v.block_digest,
                block_bytes: v.block_bytes,
                block_tx_count: v.block_tx_count,
                committed_at: now,
                leader_round: round,
            };
            self.emit_commit(entry, rotated);
            // Only a vertex ordered here counts as a commit of this node,
            // and only its block is queued for execution.
            self.cfg.telemetry.add(counters::COMMIT_VERTICES, 1);
            if self.executor.is_some()
                && self
                    .rbc
                    .config()
                    .topology_at(vref.round)
                    .receives_full(self.cfg.me, vref.source)
            {
                self.exec_queue.push_back(vref);
            }
        }
        self.try_execute(now);
        let released = self.prune_to_horizon();
        self.on_live(released, now);
        self.maybe_checkpoint();
    }

    /// The order the commit of `round`'s leader appends: its leader chain
    /// and their unordered causal histories. A function of the DAG and the
    /// commit frontier, so WAL replay re-derives what the live node emitted.
    pub(crate) fn order_decision(&mut self, round: Round) -> Vec<VertexRef> {
        let (schedule, last) = (self.schedule, self.last_committed);
        let leader = schedule.leader_vertex(round);
        let chain = order::commit_chain(&self.dag, last, leader, |r| schedule.leader(r));
        order::causal_order(&mut self.dag, &chain)
    }

    /// The state step of a commit, whichever way the entry was learnt —
    /// ordered here, adopted from a state transfer, or replayed from the
    /// WAL: makes the epoch decisions due at this position of the total
    /// order, then moves the liveness table, the commit frontier, the DAG's
    /// ordered mark and the sequence cursor. Returns the entry's sequence
    /// number and the rotations it decided, which only
    /// [`Self::emit_commit`] traces (a replayed entry was traced by the
    /// incarnation that committed it).
    pub(crate) fn fold_commit(
        &mut self,
        vref: VertexRef,
        leader_round: Round,
    ) -> (u64, Vec<Event>) {
        // Epoch rotation decides at fixed positions of the agreed sequence:
        // decide *before* folding this vertex into the liveness table, so
        // every party votes on identical state.
        let rotated = self.decide_epochs_up_to(vref.round);
        let newest = &mut self.committed_round_by[vref.source.idx()];
        *newest = (*newest).max(vref.round.0 + 1);
        self.last_committed = self.last_committed.max(Some(leader_round));
        self.dag.mark_ordered(vref);
        self.commit_seq += 1;
        (self.commit_seq - 1, rotated)
    }

    /// The emit step of a commit ordered or adopted here: traces the epoch
    /// rotations its state step decided and then the commit, appends it to
    /// the emitted log and feeds it back to this proposer's clients.
    pub(crate) fn emit_commit(&mut self, entry: CommittedVertex, rotated: Vec<Event>) {
        let (vref, now) = (entry.vertex, entry.committed_at);
        for ev in rotated {
            self.cfg
                .telemetry
                .add(counters::ELECTION_EPOCH_ROTATIONS, 1);
            self.cfg.telemetry.event(now, self.cfg.me, ev);
        }
        self.cfg.telemetry.event(
            now,
            self.cfg.me,
            Event::VertexCommitted {
                round: vref.round,
                source: vref.source,
                leader: self.schedule.leader_vertex(vref.round) == vref,
                sequence: entry.sequence,
            },
        );
        self.committed_log.push(entry);
        // Commit feedback for our own proposals: closed-loop clients submit
        // their next transaction the moment the previous commits.
        if vref.source == self.cfg.me {
            if let Some(ingress) = self.ingress.as_mut() {
                ingress.on_committed(vref, now);
            }
        }
    }

    fn try_execute(&mut self, now: Micros) {
        let Some(executor) = self.executor.as_mut() else {
            return;
        };
        while let Some(front) = self.exec_queue.front().copied() {
            let Some(payload) = self.rbc.payload(front.round, front.source) else {
                break; // Block still downloading; execution lags consensus.
            };
            executor.execute(front, &payload.block, now);
            self.exec_queue.pop_front();
        }
    }

    /// Garbage collection below `last_committed − gc_depth`, a function of
    /// the committed order, so WAL replay prunes where the live node did.
    /// Returns what [`Self::prune_below`] released.
    pub(crate) fn prune_to_horizon(&mut self) -> Vec<VertexRef> {
        let (Some(depth), Some(lc)) = (self.cfg.gc_depth, self.last_committed) else {
            return Vec::new();
        };
        if lc.0 <= depth {
            return Vec::new();
        }
        self.prune_below(Round(lc.0 - depth))
    }

    /// Raises the horizon: the one list of per-round stores, for garbage
    /// collection and a state transfer's fast-forward alike. The broadcast
    /// window, which holds the blocks execution reads, stops at the execution
    /// queue's front. Returns the vertices the raised horizon made live, for
    /// a live caller to pass to [`Self::on_live`].
    pub(crate) fn prune_below(&mut self, horizon: Round) -> Vec<VertexRef> {
        let released = self.dag.prune_below(horizon);
        self.rounds.prune_below(horizon);
        // The next proposal would drop these too; a node past `max_round`
        // makes none.
        self.late_arrivals.retain(|r| r.round >= horizon);
        // Evidence records stay (they are the audit trail, already capped);
        // only their dedup keys are pruned with the rest of the round state.
        self.evidence_keys.retain(|(r, _)| *r >= horizon);
        let floor = horizon.min(self.exec_queue.front().map_or(horizon, |r| r.round));
        self.rbc.prune_below(floor);
        released
    }

    // --- round advancement ---------------------------------------------------

    /// Round admission: `r` may be left once `2f+1` of its vertices are live
    /// including the leader's — or a timeout certificate replaces it. The
    /// post-restart walk over adopted rounds (`trust_commits`) also accepts a
    /// round the adopted order has visibly committed past: the volatile
    /// certificate store cannot vouch for timeout rounds this node slept
    /// through, but the transferred commits can.
    pub(crate) fn round_complete(&self, r: Round, trust_commits: bool) -> bool {
        self.dag.round_count(r) >= self.cfg.tribe().quorum()
            && (self.dag.get(&self.schedule.leader_vertex(r)).is_some()
                || self.rounds.get(r).is_some_and(|s| s.certs.is_some())
                || (trust_commits && self.last_committed.is_some_and(|lc| lc >= r)))
    }

    pub(crate) fn try_advance(&mut self, ctx: &mut Ctx<ConsensusMsg>) {
        while self.round_complete(self.current_round, false) {
            self.enter_round(self.current_round.next(), ctx);
        }
    }

    /// Enters `round` and proposes in it, atomically, then arms its timer.
    pub(crate) fn enter_round(&mut self, round: Round, ctx: &mut Ctx<ConsensusMsg>) {
        self.current_round = round;
        // Advance the RBC admission window even when this node does not
        // broadcast in `round` (e.g. past `max_round`).
        self.rbc.note_round(round);
        self.cfg
            .telemetry
            .event(ctx.now(), self.cfg.me, Event::RoundEntered { round });
        self.sample_gauges();
        self.propose(round, ctx);
        self.flush(ctx);
        ctx.set_timer(self.cfg.timeout, round.0);
    }

    /// Samples bounded-buffer occupancy into gauges, once per round entry.
    /// The health monitor's buffer-growth detector reads these samples, so
    /// an alert names whichever buffer was filling when a stall happened.
    fn sample_gauges(&self) {
        let tel = &self.cfg.telemetry;
        if !tel.enabled() {
            return;
        }
        let rbc = self.rbc.buffer_stats();
        tel.gauge(counters::BUF_RBC_INSTANCES, rbc.instances);
        tel.gauge(counters::BUF_RBC_ECHO_DIGESTS, rbc.echo_digests);
        tel.gauge(counters::BUF_RBC_PENDING_PULLS, rbc.pending_pulls);
        tel.gauge(counters::BUF_DAG_PENDING, self.dag.pending_count() as u64);
        tel.gauge(counters::BUF_DAG_ROUNDS, self.dag.round_span() as u64);
        if let Some(ingress) = &self.ingress {
            tel.gauge(counters::BUF_MEMPOOL_DEPTH, ingress.pool().depth() as u64);
        }
    }

    // --- broadcast events -----------------------------------------------------

    /// Takes in the events of the engine call just made (its packets,
    /// timers and charges are on `ctx` already), then advances whatever
    /// round completed.
    pub(crate) fn flush(&mut self, ctx: &mut Ctx<ConsensusMsg>) {
        // Vertex intake's CPU time is charged once every event is taken in:
        // charged in place it would move `committed_at`, and through
        // `ClientIngress::on_committed` every closed-loop arrival. Nothing
        // charges `ctx` in the loop, so `ctx.now()` is each event's clock.
        let mut intake_charge = Micros::ZERO;
        let mut events = std::mem::take(&mut self.rbc_events);
        self.rbc.take_events(&mut events);
        for ev in events.drain(..) {
            match ev {
                // Act as soon as the vertex is certified, even if the block
                // is still in flight (paper §5); a delivery may also let
                // execution move on.
                RbcEvent::Certified {
                    source,
                    round,
                    digest,
                }
                | RbcEvent::DeliverFull {
                    source,
                    round,
                    digest,
                }
                | RbcEvent::DeliverMeta {
                    source,
                    round,
                    digest,
                } => {
                    if let Some((meta, held)) = self.rbc.meta_of(round, source) {
                        if held == digest {
                            let vertex = Arc::clone(meta.arc());
                            let mut charge = Micros::ZERO;
                            self.process_vertex(vertex, digest, &mut charge, ctx);
                            intake_charge += charge;
                        }
                    }
                    if matches!(ev, RbcEvent::DeliverFull { .. }) {
                        self.try_execute(ctx.now());
                    }
                }
                RbcEvent::Evidence(ev) => {
                    // The engine already counted and traced it.
                    self.keep_evidence(ev, false);
                }
            }
        }
        self.rbc_events = events;
        ctx.charge(intake_charge);
        self.try_advance(ctx);
    }

    fn on_vote(
        &mut self,
        from: PartyId,
        round: Round,
        vertex_id: Digest,
        sig: clanbft_crypto::Signature,
        ctx: &mut Ctx<ConsensusMsg>,
    ) {
        let _prof = clanbft_profiler::scope("consensus.vote");
        if !self.admit_round(round) {
            return;
        }
        ctx.charge(self.cfg.cost.aggregate(1));
        if self.cfg.verify_sigs
            && !self
                .auth
                .verify_digest(from.idx(), &vote_digest(round, &vertex_id), &sig)
        {
            self.cfg.telemetry.add(counters::REJECTED_BAD_SIG, 1);
            return;
        }
        let state = self.rounds.touch(round).expect("in the window");
        // A vote from a party that already announced a timeout for the same
        // round breaks the vote/no-vote exclusivity honest nodes maintain.
        if state.announced(from) {
            self.record_evidence(
                Evidence::VoteTimeoutConflict { round, party: from },
                ctx.now(),
            );
            return;
        }
        match state.record_vote(from, vertex_id) {
            VoteOutcome::New(count) => {
                if count >= self.cfg.tribe().quorum() {
                    self.try_commit(round, ctx.now());
                    // The commit's garbage collection may have released
                    // pending vertices into the current round.
                    self.try_advance(ctx);
                }
            }
            VoteOutcome::Duplicate => {
                self.cfg.telemetry.add(counters::REJECTED_DUPLICATE, 1);
            }
            VoteOutcome::Conflict { first } => {
                self.record_evidence(
                    Evidence::DoubleVote {
                        round,
                        voter: from,
                        first,
                        second: vertex_id,
                    },
                    ctx.now(),
                );
            }
        }
    }

    fn on_timeout_msg(
        &mut self,
        from: PartyId,
        round: Round,
        timeout_sig: clanbft_crypto::Signature,
        no_vote_sig: clanbft_crypto::Signature,
        ctx: &mut Ctx<ConsensusMsg>,
    ) {
        let _prof = clanbft_profiler::scope("consensus.timeout");
        if !self.admit_round(round) {
            return;
        }
        ctx.charge(self.cfg.cost.aggregate(2));
        if self.cfg.verify_sigs {
            let ok = self
                .auth
                .verify_digest(from.idx(), &TimedOut::digest(round), &timeout_sig)
                && self
                    .auth
                    .verify_digest(from.idx(), &NoVote::digest(round), &no_vote_sig);
            if !ok {
                self.cfg.telemetry.add(counters::REJECTED_BAD_SIG, 1);
                return;
            }
        }
        let state = self.rounds.touch(round).expect("in the window");
        // The mirror of the check in `on_vote`: a timeout announcement from
        // a party whose vote we already counted is misbehaviour.
        if state.voted_for(from).is_some() {
            self.record_evidence(
                Evidence::VoteTimeoutConflict { round, party: from },
                ctx.now(),
            );
            return;
        }
        let Some(count) = state.record_timeout(from, timeout_sig, no_vote_sig) else {
            self.cfg.telemetry.add(counters::REJECTED_DUPLICATE, 1);
            return;
        };
        if count >= self.cfg.tribe().quorum() && state.certs.is_none() {
            ctx.charge(self.cfg.cost.aggregate(count) + self.cfg.cost.agg_verify(count));
            state.form_certs(round, self.cfg.tribe().n());
            self.try_advance(ctx);
        }
    }
}

impl Protocol<ConsensusMsg> for SailfishNode {
    fn on_start(&mut self, ctx: &mut Ctx<ConsensusMsg>) {
        self.enter_round(Round::GENESIS, ctx);
    }

    fn on_message(&mut self, from: PartyId, msg: ConsensusMsg, ctx: &mut Ctx<ConsensusMsg>) {
        self.on_message_ref(from, &msg, ctx);
    }

    fn on_message_ref(&mut self, from: PartyId, msg: &ConsensusMsg, ctx: &mut Ctx<ConsensusMsg>) {
        match msg {
            ConsensusMsg::Rbc(pkt) => {
                self.rbc.handle(from, pkt, ctx);
                // Most deliveries yield no event: no vertex came in, so no
                // round can have completed (`try_advance` runs wherever one
                // can).
                if self.rbc.has_events() {
                    self.flush(ctx);
                }
            }
            ConsensusMsg::Vote {
                round,
                vertex_id,
                sig,
            } => {
                self.on_vote(from, *round, *vertex_id, *sig, ctx);
            }
            ConsensusMsg::Timeout {
                round,
                timeout_sig,
                no_vote_sig,
            } => {
                self.on_timeout_msg(from, *round, *timeout_sig, *no_vote_sig, ctx);
            }
            ConsensusMsg::StateRequest {
                from_round,
                next_seq,
            } => {
                self.on_state_request(from, *from_round, *next_seq, ctx);
            }
            ConsensusMsg::StateReply {
                from_round,
                vertices,
                committed,
            } => {
                self.on_state_reply(from, *from_round, vertices, committed, ctx);
            }
        }
    }

    fn on_timer(&mut self, token: u64, ctx: &mut Ctx<ConsensusMsg>) {
        // Pull-retry timers live in their own token namespace (high bit
        // set), disjoint from the plain round numbers used below.
        if let Some((round, source)) = parse_retry_token(token) {
            self.rbc.on_retry(round, source, ctx);
            self.flush(ctx);
            return;
        }
        let round = Round(token);
        // A round timer expiring with a state transfer still open means the
        // remaining responders are slow or down: settle for whatever `f+1`
        // of them already agree on and rejoin — liveness must not hinge on
        // prompt peers (commits are suppressed while the transfer is open).
        self.finish_catchup(ctx);
        if round != self.current_round {
            return; // Stale timer; the round already advanced.
        }
        // A leader vertex below the horizon counts as delivered, so a round
        // past this test is in the window.
        if self.dag.is_known(&self.schedule.leader_vertex(round)) {
            return;
        }
        let state = self.rounds.touch(round).expect("in the window");
        if state.voted || state.no_voted {
            return;
        }
        state.no_voted = true;
        // Announce the timeout: sign both the TC statement (round
        // advancement) and the NVC statement (the next leader's license to
        // skip the edge). Having announced, this node must never vote for
        // this round's leader vertex — persisted first, so not even a crash
        // lets it forget the exclusivity.
        self.log_wal(|| clanbft_storage::WalRecord::NoVoted { round });
        self.cfg
            .telemetry
            .event(ctx.now(), self.cfg.me, Event::TimeoutAnnounced { round });
        ctx.charge(self.cfg.cost.sign() * 2);
        let timeout_sig = self.auth.sign_digest(&TimedOut::digest(round));
        let no_vote_sig = self.auth.sign_digest(&NoVote::digest(round));
        ctx.multicast(
            self.cfg.tribe().parties(),
            ConsensusMsg::Timeout {
                round,
                timeout_sig,
                no_vote_sig,
            },
        );
    }

    fn on_restart(&mut self, ctx: &mut Ctx<ConsensusMsg>) {
        // Rebuild from scratch through the normal constructor: it reopens
        // the storage directory and replays checkpoint + WAL silently.
        let cfg = self.cfg.clone();
        let auth = Arc::clone(&self.auth);
        *self = SailfishNode::new(cfg, auth);
        self.post_restart(ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::messages::CommittedRec;
    use clanbft_crypto::{Registry, Scheme};
    use clanbft_rbc::{ClanTopology, RbcMsg, RbcPacket, TribePayload};
    use clanbft_types::{NoVoteCert, TimeoutCert, TribeParams};

    fn test_node(n: usize, txs: u32) -> (SailfishNode, Vec<Arc<Authenticator>>) {
        let tribe = TribeParams::new(n);
        let topology = Arc::new(ClanTopology::whole_tribe(tribe));
        let (registry, keypairs) = Registry::generate(Scheme::Keyed, n, 77);
        let auths: Vec<Arc<Authenticator>> = keypairs
            .into_iter()
            .enumerate()
            .map(|(i, kp)| Arc::new(Authenticator::new(i, kp, Arc::clone(&registry))))
            .collect();
        let mut cfg = NodeConfig::new(PartyId(0), topology);
        cfg.workload = WorkloadSpec::Synthetic {
            txs_per_proposal: txs,
        }
        .into();
        let node = SailfishNode::new(cfg, Arc::clone(&auths[0]));
        (node, auths)
    }

    fn bare_vertex(round: u64, source: u32, strong: Vec<VertexRef>) -> Vertex {
        Vertex {
            round: Round(round),
            source: PartyId(source),
            block_digest: Digest::of(&[round as u8, source as u8]),
            block_bytes: 0,
            block_tx_count: 0,
            strong_edges: strong,
            weak_edges: vec![],
            nvc: None,
            tc: None,
        }
    }

    fn full_edges(round: u64, n: u32) -> Vec<VertexRef> {
        (0..n)
            .map(|s| VertexRef {
                round: Round(round),
                source: PartyId(s),
            })
            .collect()
    }

    #[test]
    fn vertex_without_leader_edge_needs_certificate() {
        // n = 4, leader(0) = P0. A round-1 vertex whose strong edges skip
        // the round-0 leader must carry a TC; without one it is rejected.
        let (mut node, auths) = test_node(4, 0);
        let mut fx = Micros::ZERO;
        // Leader edge present: accepted.
        let ok = bare_vertex(1, 1, full_edges(0, 4));
        assert!(node.validate_vertex(&ok, &mut fx));
        // Leader edge missing (P0 excluded), no TC: rejected. Source P2 is
        // not round 1's leader (P1), so the TC path applies.
        let missing = bare_vertex(
            1,
            2,
            vec![
                VertexRef {
                    round: Round(0),
                    source: PartyId(1),
                },
                VertexRef {
                    round: Round(0),
                    source: PartyId(2),
                },
                VertexRef {
                    round: Round(0),
                    source: PartyId(3),
                },
            ],
        );
        assert!(!node.validate_vertex(&missing, &mut fx));
        // Same vertex with a valid TC for round 0: accepted.
        let d = TimedOut::digest(Round(0));
        let pairs: Vec<_> = (0..3).map(|i| (i, auths[i].sign_digest(&d))).collect();
        let mut with_tc = missing.clone();
        with_tc.tc = Some(Box::new(TimeoutCert::new(Round(0), 4, &pairs)));
        assert!(node.validate_vertex(&with_tc, &mut fx));
        // A TC for the wrong round: rejected.
        let mut wrong_round = missing.clone();
        let d5 = TimedOut::digest(Round(5));
        let pairs5: Vec<_> = (0..3).map(|i| (i, auths[i].sign_digest(&d5))).collect();
        wrong_round.tc = Some(Box::new(TimeoutCert::new(Round(5), 4, &pairs5)));
        assert!(!node.validate_vertex(&wrong_round, &mut fx));
        // An undersized TC: rejected.
        let mut thin = missing.clone();
        thin.tc = Some(Box::new(TimeoutCert::new(Round(0), 4, &pairs[..2])));
        assert!(!node.validate_vertex(&thin, &mut fx));
    }

    #[test]
    fn leader_vertex_needs_nvc_not_tc() {
        // n = 4: leader(1) = P1. P1's round-1 vertex without an edge to the
        // round-0 leader vertex needs an NVC (a TC does not suffice).
        let (mut node, auths) = test_node(4, 0);
        let mut fx = Micros::ZERO;
        let edges = vec![
            VertexRef {
                round: Round(0),
                source: PartyId(1),
            },
            VertexRef {
                round: Round(0),
                source: PartyId(2),
            },
            VertexRef {
                round: Round(0),
                source: PartyId(3),
            },
        ];
        let bare = bare_vertex(1, 1, edges.clone());
        assert!(!node.validate_vertex(&bare, &mut fx), "no justification");
        let td = TimedOut::digest(Round(0));
        let tc_pairs: Vec<_> = (0..3).map(|i| (i, auths[i].sign_digest(&td))).collect();
        let mut with_tc_only = bare.clone();
        with_tc_only.tc = Some(Box::new(TimeoutCert::new(Round(0), 4, &tc_pairs)));
        assert!(
            !node.validate_vertex(&with_tc_only, &mut fx),
            "a TC alone must not license the next leader"
        );
        let nd = NoVote::digest(Round(0));
        let nvc_pairs: Vec<_> = (0..3).map(|i| (i, auths[i].sign_digest(&nd))).collect();
        let mut with_nvc = bare.clone();
        with_nvc.nvc = Some(Box::new(NoVoteCert::new(Round(0), 4, &nvc_pairs)));
        assert!(node.validate_vertex(&with_nvc, &mut fx));
    }

    #[test]
    fn malformed_shape_rejected() {
        let (mut node, _) = test_node(4, 0);
        let mut fx = Micros::ZERO;
        // Too few strong edges for quorum 3.
        let thin = bare_vertex(1, 2, full_edges(0, 2));
        assert!(!node.validate_vertex(&thin, &mut fx));
    }

    #[test]
    fn edge_outside_the_tribe_is_refused_live_and_in_state_transfer() {
        // A quorum of honest edges plus one to a party that does not exist:
        // certified by the broadcast layer like any vertex, it must not get
        // as far as the DAG's pending buffer, where it would wait for that
        // parent until garbage collection.
        let (mut node, _) = test_node(4, 0);
        let stranger = VertexRef {
            round: Round(0),
            source: PartyId(9999),
        };
        let honest = Arc::new(bare_vertex(1, 1, full_edges(0, 4)));
        let mut edges = full_edges(0, 4);
        edges.push(stranger);
        let crafted = Arc::new(bare_vertex(1, 2, edges));
        let cost = node.cfg.cost;
        let mut ctx = Ctx::new(PartyId(0), Micros::ZERO, &cost);
        let mut intake = Micros::ZERO;
        for v in [&crafted, &honest] {
            node.process_vertex(Arc::clone(v), v.id(), &mut intake, &mut ctx);
        }
        assert!(
            node.dag.is_known(&honest.reference()),
            "parents missing: buffered"
        );
        assert!(!node.dag.is_known(&crafted.reference()));
        assert_eq!(node.dag.pending_count(), 1);

        // The same two vertices offered by f+1 state-transfer responders.
        let mut ctx = Ctx::new(PartyId(0), Micros(1), &cost);
        node.on_restart(&mut ctx);
        for from in [1, 2] {
            let reply = [Arc::clone(&crafted), Arc::clone(&honest)];
            node.on_state_reply(PartyId(from), Round(0), &reply, &[], &mut ctx);
        }
        assert!(node.catchup.is_none(), "f+1 responders settle the transfer");
        assert!(node.dag.is_known(&honest.reference()));
        assert!(!node.dag.is_known(&crafted.reference()));
        assert_eq!(node.dag.pending_count(), 1);
    }

    #[test]
    fn weak_edges_past_the_cap_or_repeated_are_refused_live_and_in_state_transfer() {
        // n = 7: f = 2. A proposer cites at most f older vertices, each
        // once. One that cites more, or one twice, must not reach the DAG's
        // pending buffer (where every edge nobody can resolve holds it) nor
        // be charged a `db_read` per edge.
        let with_weak = |source: u32, weak: Vec<VertexRef>| {
            let mut v = bare_vertex(2, source, full_edges(1, 7));
            v.weak_edges = weak;
            Arc::new(v)
        };
        let honest = with_weak(1, full_edges(0, 2));
        let crowded = with_weak(2, full_edges(0, 3));
        let repeated = with_weak(3, vec![full_edges(0, 1)[0]; 2]);
        let offer = |node: &mut SailfishNode, vertices: &[&Arc<Vertex>]| {
            let cost = node.cfg.cost;
            let mut ctx = Ctx::new(PartyId(0), Micros::ZERO, &cost);
            let mut intake = Micros::ZERO;
            for v in vertices {
                node.process_vertex(Arc::clone(v), v.id(), &mut intake, &mut ctx);
            }
            intake
        };
        let honest_alone = offer(&mut test_node(7, 0).0, &[&honest]);
        let (mut node, _) = test_node(7, 0);
        assert_eq!(
            offer(&mut node, &[&crowded, &repeated, &honest]),
            honest_alone,
            "a refused vertex costs no database reads"
        );
        let refused = |node: &SailfishNode| {
            assert!(node.dag.is_known(&honest.reference()), "buffered");
            assert!(!node.dag.is_known(&crowded.reference()));
            assert!(!node.dag.is_known(&repeated.reference()));
            assert_eq!(node.dag.pending_count(), 1);
        };
        refused(&node);

        // The same three offered by f+1 state-transfer responders.
        let cost = node.cfg.cost;
        let mut ctx = Ctx::new(PartyId(0), Micros(1), &cost);
        node.on_restart(&mut ctx);
        for from in [1, 2, 3] {
            let reply = [&crowded, &repeated, &honest].map(Arc::clone);
            node.on_state_reply(PartyId(from), Round(0), &reply, &[], &mut ctx);
        }
        assert!(node.catchup.is_none(), "f+1 responders settle the transfer");
        refused(&node);
    }

    #[test]
    fn vertex_naming_another_instance_is_refused_live_and_in_a_pull_response() {
        let (mut node, _) = test_node(4, 0);
        let cost = node.cfg.cost;
        let far = Round(1 << 40);
        // A well-formed pair naming `(round, source)`, whatever carries it.
        let naming = |round: u64, source: u32| {
            let edges = if round == 0 {
                vec![]
            } else {
                full_edges(round - 1, 4)
            };
            let block = Block::empty(PartyId(source), Round(round));
            let mut vertex = bare_vertex(round, source, edges);
            vertex.block_digest = block.digest();
            vertex.block_bytes = block.encoded_len() as u64;
            MergedPayload::new(vertex, block)
        };
        let mut deliver = |from: u32, source: u32, msg: RbcMsg<MergedPayload>| {
            let mut ctx = Ctx::new(PartyId(0), Micros(1), &cost);
            let packet = RbcPacket {
                source: PartyId(source),
                round: Round(1),
                msg,
            };
            node.on_message(PartyId(from), ConsensusMsg::Rbc(packet), &mut ctx);
            (ctx.take_outbox().len(), node.evidence().to_vec())
        };
        // Live: P1 broadcasts, in its round-1 instance, a vertex naming
        // P2's slot; P2 one naming a far round. Neither is echoed.
        let (sent, evidence) = deliver(1, 1, RbcMsg::Val(naming(1, 2)));
        assert_eq!(sent, 0, "a misbound VAL is not echoed");
        assert_eq!(
            evidence,
            [Evidence::MisboundPayload {
                round: Round(1),
                source: PartyId(1),
                named_round: Round(1),
                named_source: PartyId(2),
            }]
        );
        let (sent, evidence) = deliver(2, 2, RbcMsg::ValMeta(naming(far.0, 2).vertex));
        assert_eq!(sent, 0);
        assert_eq!(evidence.len(), 2);
        assert_eq!(evidence[1].culprit(), PartyId(2));
        // Pulled: P3's instance answered by P2 with a vertex of P1's slot.
        // Refused, and nobody's fault but the responder's: no evidence.
        let (sent, evidence) = deliver(2, 3, RbcMsg::PullResp(naming(1, 1)));
        assert_eq!((sent, evidence.len()), (0, 2));
        let (_, evidence) = deliver(2, 3, RbcMsg::MetaResp(naming(far.0, 3).vertex));
        assert_eq!(evidence.len(), 2);
        // The honest vertex of an instance still goes through afterwards.
        let (sent, _) = deliver(3, 3, RbcMsg::Val(naming(1, 3)));
        assert!(sent > 0, "the well-bound VAL is echoed");
        for source in 1..4 {
            assert!(node.rbc.meta_of(Round(1), PartyId(source)).is_some() == (source == 3));
        }
        assert_eq!(node.dag.pending_count(), 0);
    }

    /// Hands `node` one packet of `source`'s instance in `round`, from
    /// `from`.
    fn rbc_in(
        node: &mut SailfishNode,
        from: u32,
        (round, source): (u64, u32),
        msg: RbcMsg<MergedPayload>,
    ) {
        let cost = node.cfg.cost;
        let mut ctx = Ctx::new(node.cfg.me, Micros(1), &cost);
        let packet = RbcPacket {
            source: PartyId(source),
            round: Round(round),
            msg,
        };
        node.on_message(PartyId(from), ConsensusMsg::Rbc(packet), &mut ctx);
    }

    /// Certifies `payload`'s instance at `node` with the echo certificate
    /// of parties 1 to 3.
    fn certify(node: &mut SailfishNode, auths: &[Arc<Authenticator>], payload: &MergedPayload) {
        let (round, source) = (payload.vertex.round, payload.vertex.source);
        let digest = payload.rbc_digest();
        let statement = clanbft_rbc::echo_statement(source, round, &digest);
        let shares: Vec<_> = (1..4)
            .map(|i| (i, auths[i].sign_digest(&statement)))
            .collect();
        let cert = Arc::new(clanbft_crypto::AggregateSignature::aggregate(4, &shares));
        let msg = RbcMsg::EchoCert { digest, cert };
        rbc_in(node, 1, (round.0, source.0), msg);
    }

    /// `(round, source)`'s vertex, with strong edges to `strong` and a
    /// block of `txs` transactions.
    fn merged(round: u64, source: u32, strong: Vec<VertexRef>, txs: u32) -> MergedPayload {
        let batches = (txs > 0)
            .then(|| TxBatch::synthetic(PartyId(source), 0, txs, 512, Micros::ZERO))
            .into_iter()
            .collect();
        let block = Block::new(PartyId(source), Round(round), batches);
        let mut vertex = bare_vertex(round, source, strong);
        vertex.block_digest = block.digest();
        vertex.block_bytes = block.encoded_len() as u64;
        vertex.block_tx_count = block.tx_count();
        MergedPayload::new(vertex, block)
    }

    /// The payload of the VAL in `outbox` addressed to `to`, if any.
    fn val_for(outbox: &[(PartyId, ConsensusMsg)], to: PartyId) -> Option<MergedPayload> {
        outbox.iter().find_map(|(at, msg)| match msg {
            ConsensusMsg::Rbc(RbcPacket {
                msg: RbcMsg::Val(p),
                ..
            }) if *at == to => Some(p.clone()),
            _ => None,
        })
    }

    #[test]
    fn a_block_is_held_once_delivered_own_proposals_by_loopback() {
        // P0 of a whole-tribe four: its own round-0 block is held once its
        // VAL came back and the instance certified, not at proposal time.
        let (mut node, auths) = test_node(4, 10);
        let cost = node.cfg.cost;
        let mut ctx = Ctx::new(PartyId(0), Micros::ZERO, &cost);
        node.on_start(&mut ctx);
        let own = val_for(&ctx.take_outbox(), PartyId(0)).expect("VAL to itself");
        let vref = own.vertex.reference();
        assert!(node.held_block(&vref).is_none(), "proposed, not delivered");
        rbc_in(&mut node, 0, (0, 0), RbcMsg::Val(own.clone()));
        assert!(node.held_block(&vref).is_none(), "held in custody only");
        certify(&mut node, &auths, &own);
        assert_eq!(node.held_block(&vref), Some(&*own.block));
        assert_eq!(node.held_block(&vref).map(Block::tx_count), Some(10));

        // P0 outside the one clan {1, 2, 3}: its own empty block comes back
        // as the meta view, and no block is held.
        let tribe = TribeParams::new(4);
        let clan = vec![PartyId(1), PartyId(2), PartyId(3)];
        let topology = Arc::new(ClanTopology::single_clan(tribe, clan));
        let cfg = NodeConfig::new(PartyId(0), topology);
        let mut node = SailfishNode::new(cfg, Arc::clone(&auths[0]));
        let mut ctx = Ctx::new(PartyId(0), Micros::ZERO, &cost);
        node.on_start(&mut ctx);
        let outbox = ctx.take_outbox();
        let own = val_for(&outbox, PartyId(1)).expect("VAL to the clan");
        assert!(
            val_for(&outbox, PartyId(0)).is_none(),
            "an outsider gets the meta"
        );
        let meta = RbcMsg::ValMeta(own.meta());
        rbc_in(&mut node, 0, (0, 0), meta);
        certify(&mut node, &auths, &own);
        assert!(node.rbc.delivered(Round(0), PartyId(0)));
        assert!(node.dag.is_known(&own.vertex.reference()));
        assert!(node.held_block(&own.vertex.reference()).is_none());
    }

    #[test]
    fn a_block_that_lands_after_its_vertex_committed_is_executed_then() {
        // P0 with execution on holds three round-0 blocks; P1's round-1
        // leader vertex reaches it as a meta view and certifies, and three
        // votes commit it before its block lands by a pull response.
        let (mut node, auths) = test_node(4, 0);
        node.executor = Some(Executor::new());
        let round0: Vec<MergedPayload> = [0, 2, 3].map(|s| merged(0, s, vec![], 5)).into();
        for p in &round0 {
            let source = p.vertex.source.0;
            rbc_in(&mut node, source, (0, source), RbcMsg::Val(p.clone()));
            certify(&mut node, &auths, p);
        }
        let parents = round0.iter().map(|p| p.vertex.reference()).collect();
        let leader = merged(1, 1, parents, 7);
        let vref = leader.vertex.reference();
        rbc_in(&mut node, 1, (1, 1), RbcMsg::ValMeta(leader.meta()));
        certify(&mut node, &auths, &leader);
        assert!(node.dag.is_known(&vref), "acted on at certification");
        let id = leader.rbc_digest();
        let cost = node.cfg.cost;
        for (i, auth) in auths.iter().enumerate().skip(1) {
            let vote = ConsensusMsg::Vote {
                round: Round(1),
                vertex_id: id,
                sig: auth.sign_digest(&vote_digest(Round(1), &id)),
            };
            let mut ctx = Ctx::new(PartyId(0), Micros(1), &cost);
            node.on_message(PartyId(i as u32), vote, &mut ctx);
        }
        assert_eq!(node.last_committed(), Some(Round(1)));
        let executed = |node: &SailfishNode| {
            let receipts = node.executor.as_ref().expect("executes").receipts();
            receipts.iter().map(|r| r.vertex).collect::<Vec<_>>()
        };
        assert_eq!(executed(&node).len(), 3, "the round-0 blocks");
        assert!(node.held_block(&vref).is_none());

        let resp = RbcMsg::PullResp(leader.clone());
        rbc_in(&mut node, 2, (1, 1), resp);
        assert_eq!(node.held_block(&vref), Some(&*leader.block));
        assert_eq!(executed(&node).last(), Some(&vref));
        assert_eq!(node.executor.as_ref().unwrap().executed_txs(), 22);
    }

    /// A storage-backed P0 of a four-party tribe on a fresh directory `name`
    /// under the temp dir, with what it takes to rebuild it from that disk.
    fn durable_node(name: &str) -> (SailfishNode, NodeConfig, Arc<Authenticator>) {
        let dir = std::env::temp_dir().join(format!("clanbft-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let topology = Arc::new(ClanTopology::whole_tribe(TribeParams::new(4)));
        let (registry, keypairs) = Registry::generate(Scheme::Keyed, 4, 77);
        let kp = keypairs.into_iter().next().expect("keypair");
        let auth = Arc::new(Authenticator::new(0, kp, registry));
        let mut cfg = NodeConfig::new(PartyId(0), topology);
        cfg.storage_dir = Some(dir);
        cfg.fsync = false;
        (SailfishNode::new(cfg.clone(), Arc::clone(&auth)), cfg, auth)
    }

    fn remove_storage(cfg: &NodeConfig) {
        let _ = std::fs::remove_dir_all(cfg.storage_dir.as_ref().expect("durable"));
    }

    #[test]
    fn a_vertex_pending_at_a_checkpoint_goes_live_after_a_restart() {
        // P1's round-1 vertex waits for (0,3) when the checkpoint is
        // installed and goes live when (0,3) arrives after it: the node
        // rebuilt from that checkpoint and the WAL must hold it live too.
        let (mut node, cfg, auth) = durable_node("pending-checkpoint");
        let cost = node.cfg.cost;
        let mut ctx = Ctx::new(PartyId(0), Micros::ZERO, &cost);
        let mut intake = Micros::ZERO;
        let mut offer = |node: &mut SailfishNode, v: Vertex| {
            let v = Arc::new(v);
            node.process_vertex(Arc::clone(&v), v.id(), &mut intake, &mut ctx);
        };
        for source in 0..3 {
            offer(&mut node, bare_vertex(0, source, vec![]));
        }
        let child = bare_vertex(1, 1, full_edges(0, 4));
        offer(&mut node, child.clone());
        assert_eq!(node.dag.pending_count(), 1);
        node.install_checkpoint();
        offer(&mut node, bare_vertex(0, 3, vec![]));
        assert!(node.dag.get(&child.reference()).is_some());
        drop(node);
        let rebuilt = SailfishNode::new(cfg.clone(), auth);
        assert!(
            rebuilt.dag.get(&child.reference()).is_some(),
            "the pending vertex was lost in the restart"
        );
        remove_storage(&cfg);
    }

    /// A committed-order entry for `vertex` at `sequence`.
    fn committed_rec(sequence: u64, vertex: &Vertex) -> CommittedRec {
        CommittedRec {
            sequence,
            vertex: vertex.reference(),
            block_digest: vertex.block_digest,
            block_bytes: vertex.block_bytes,
            block_tx_count: vertex.block_tx_count,
            leader_round: vertex.round,
        }
    }

    #[test]
    fn an_adopted_mark_without_its_vertex_survives_a_checkpoint() {
        // f + 1 responders agree on a commit whose vertex none of them
        // ships. Its ordered mark must outlive a checkpoint and a restart:
        // without it the vertex, arriving later, is ordered a second time.
        let (mut node, cfg, auth) = durable_node("adopted-mark");
        let cost = node.cfg.cost;
        let mut ctx = Ctx::new(PartyId(0), Micros(1), &cost);
        node.on_restart(&mut ctx);
        let absent = bare_vertex(0, 1, vec![]);
        let committed = [committed_rec(0, &absent)];
        for from in [1, 2] {
            node.on_state_reply(PartyId(from), Round(0), &[], &committed, &mut ctx);
        }
        assert!(node.dag.is_ordered(&absent.reference()));
        assert!(!node.dag.is_known(&absent.reference()));
        node.install_checkpoint();
        drop(node);
        let rebuilt = SailfishNode::new(cfg.clone(), auth);
        assert!(
            rebuilt.dag.is_ordered(&absent.reference()),
            "the adopted mark was lost in the restart"
        );
        remove_storage(&cfg);
    }

    #[test]
    fn a_node_rebuilt_right_after_an_adoption_holds_what_it_adopted() {
        // f + 1 responders agree on round 0 and on the order of P1's vertex
        // in it. No periodic checkpoint follows; a node rebuilt from the
        // disk at once must hold the adopted order and window all the same.
        let (mut node, cfg, auth) = durable_node("adoption");
        let cost = node.cfg.cost;
        let mut ctx = Ctx::new(PartyId(0), Micros(1), &cost);
        node.on_restart(&mut ctx);
        let own = node
            .last_proposal
            .clone()
            .expect("proposed on restart")
            .vertex;
        let mut round0 = vec![Arc::new(own)];
        round0.extend((1..4).map(|s| Arc::new(bare_vertex(0, s, vec![]))));
        let committed = [committed_rec(0, &round0[1])];
        for from in [1, 2] {
            node.on_state_reply(PartyId(from), Round(0), &round0, &committed, &mut ctx);
        }
        assert!(node.catchup.is_none(), "f+1 responders settle the transfer");
        assert_eq!((node.commit_seq, node.round()), (1, Round(1)));
        let rebuilt = SailfishNode::new(cfg.clone(), auth);
        assert_eq!(
            rebuilt.snapshot().to_bytes(),
            node.snapshot().to_bytes(),
            "the rebuilt node lost what the adoption brought"
        );
        remove_storage(&cfg);
    }

    #[test]
    fn rbc_evidence_survives_a_restart() {
        // P1 sends a storage-backed P0 two different VALs for its round-1
        // instance: the broadcast layer records the equivocation, and a node
        // rebuilt from the same directory still holds the record, before a
        // checkpoint and after one.
        let (mut node, cfg, auth) = durable_node("rbc-evidence-restart");
        let cost = node.cfg.cost;
        for txs in [1, 2] {
            let batch = TxBatch::synthetic(PartyId(1), 0, txs, 512, Micros::ZERO);
            let block = Block::new(PartyId(1), Round(1), vec![batch]);
            let mut vertex = bare_vertex(1, 1, full_edges(0, 4));
            vertex.block_digest = block.digest();
            vertex.block_bytes = block.encoded_len() as u64;
            vertex.block_tx_count = block.tx_count();
            let packet = RbcPacket {
                source: PartyId(1),
                round: Round(1),
                msg: RbcMsg::Val(MergedPayload::new(vertex, block)),
            };
            let mut ctx = Ctx::new(PartyId(0), Micros(1), &cost);
            node.on_message(PartyId(1), ConsensusMsg::Rbc(packet), &mut ctx);
        }
        let recorded = node.evidence().to_vec();
        assert_eq!(recorded.len(), 1, "{recorded:?}");
        assert_eq!(recorded[0].kind(), "equivocating_source");
        assert_eq!(recorded[0].culprit(), PartyId(1));
        drop(node);

        let mut rebuilt = SailfishNode::new(cfg.clone(), Arc::clone(&auth));
        assert_eq!(rebuilt.evidence(), recorded, "evidence lost in the restart");
        assert!(rebuilt.recovered());

        // A checkpoint rotates the WAL that held the record: the next
        // incarnation finds it in the checkpoint instead.
        rebuilt.last_committed = Some(Round(rebuilt.cfg.checkpoint_interval));
        rebuilt.maybe_checkpoint();
        drop(rebuilt);
        let after_checkpoint = SailfishNode::new(cfg.clone(), auth);
        assert_eq!(after_checkpoint.recovered_records, 0, "the WAL was rotated");
        assert_eq!(
            after_checkpoint.evidence(),
            recorded,
            "evidence lost in the checkpoint"
        );
        remove_storage(&cfg);
    }

    #[test]
    fn build_block_spreads_creation_times() {
        let (mut node, _) = test_node(4, 100);
        node.last_proposal_at = Micros::ZERO;
        let block = node.build_block(Round(1), Micros::from_secs(4));
        assert_eq!(block.tx_count(), 100);
        assert_eq!(block.batches.len(), 4, "four sub-batches per proposal");
        let times: Vec<u64> = block.batches.iter().map(|b| b.created_at.0).collect();
        assert!(times.windows(2).all(|w| w[0] < w[1]), "{times:?}");
        assert_eq!(
            *times.last().unwrap(),
            3_500_000,
            "newest batch half a quarter back"
        );
        assert_eq!(times[0], 500_000, "oldest batch near the previous proposal");
        // Sequence numbers advance.
        let block2 = node.build_block(Round(2), Micros::from_secs(8));
        assert_eq!(block2.batches[0].first_seq, 100);
    }

    #[test]
    fn non_proposer_builds_empty_blocks() {
        let (mut node, _) = {
            let tribe = TribeParams::new(4);
            // Party 0 sits outside the clan its blocks would go to.
            let clan = vec![PartyId(1), PartyId(2), PartyId(3)];
            let topology = Arc::new(ClanTopology::single_clan(tribe, clan));
            let (registry, keypairs) = Registry::generate(Scheme::Keyed, 4, 7);
            let auth = Arc::new(Authenticator::new(
                0,
                keypairs.into_iter().next().unwrap(),
                registry,
            ));
            let mut cfg = NodeConfig::new(PartyId(0), topology);
            cfg.workload = WorkloadSpec::Synthetic {
                txs_per_proposal: 500,
            }
            .into();
            (SailfishNode::new(cfg, auth), ())
        };
        let block = node.build_block(Round(1), Micros::from_secs(1));
        assert_eq!(block.tx_count(), 0);
        assert!(block.batches.is_empty());
    }

    #[test]
    fn state_transfer_finishes_on_replies_from_distinct_responders() {
        // n = 4: f + 1 = 2 responders settle a transfer. A responder that
        // replies twice (a replaying one, say) is still one responder.
        let (mut node, _) = test_node(4, 0);
        let cost = node.cfg.cost;
        let mut ctx = Ctx::new(PartyId(0), Micros(1), &cost);
        node.on_restart(&mut ctx);
        let vertex = Arc::new(bare_vertex(0, 1, vec![]));
        let reply = |from_round: u64| ConsensusMsg::StateReply {
            from_round: Round(from_round),
            vertices: vec![Arc::clone(&vertex)],
            committed: vec![CommittedRec {
                sequence: 0,
                vertex: vertex.reference(),
                block_digest: vertex.block_digest,
                block_bytes: 0,
                block_tx_count: 0,
                leader_round: Round(0),
            }],
        };
        let adopted = |node: &SailfishNode| {
            (
                node.dag.is_known(&vertex.reference()),
                node.committed_log.len(),
            )
        };
        for _ in 0..2 {
            node.on_message(PartyId(1), reply(0), &mut ctx);
        }
        assert!(node.catchup.is_some(), "one responder, however often");
        assert_eq!(adopted(&node), (false, 0));
        node.on_message(PartyId(2), reply(1), &mut ctx);
        assert!(node.catchup.is_some(), "a reply to another request");
        assert_eq!(adopted(&node), (false, 0));
        node.on_message(PartyId(2), reply(0), &mut ctx);
        assert!(node.catchup.is_none(), "a second responder settles it");
        assert_eq!(adopted(&node), (true, 1));
    }

    #[test]
    fn a_second_reply_from_one_responder_is_ignored() {
        // n = 4: f + 1 = 2. P1 answers without the entry, then again with
        // it; P2 ships it. Only P1's first reply is kept, so the entry has
        // one voucher of the two it needs. (The flood guard serves a peer
        // once per `from_round`: an honest responder never sends the second.)
        let (mut node, _) = test_node(4, 0);
        let cost = node.cfg.cost;
        let mut ctx = Ctx::new(PartyId(0), Micros(1), &cost);
        node.on_restart(&mut ctx);
        let vertex = bare_vertex(0, 1, vec![]);
        let entry = [committed_rec(0, &vertex)];
        node.on_state_reply(PartyId(1), Round(0), &[], &[], &mut ctx);
        node.on_state_reply(PartyId(1), Round(0), &[], &entry, &mut ctx);
        assert!(node.catchup.is_some(), "one responder, however often");
        node.on_state_reply(PartyId(2), Round(0), &[], &entry, &mut ctx);
        assert!(node.catchup.is_none(), "a second responder settles it");
        assert_eq!(node.commit_seq, 0, "adopted on a second reply's word");
    }

    #[test]
    fn state_requests_are_answered_with_the_committed_suffix() {
        // The log is contiguous from its base, 5 here: a request gets the
        // entries from its `next_seq` on, the whole log for a `next_seq`
        // below the base, and none past the end.
        let (mut node, _) = test_node(4, 0);
        let cost = node.cfg.cost;
        let mut ctx = Ctx::new(PartyId(0), Micros(1), &cost);
        let entry = |sequence: u64| CommittedVertex {
            sequence,
            vertex: VertexRef {
                round: Round(sequence),
                source: PartyId(0),
            },
            block_digest: Digest::ZERO,
            block_bytes: 0,
            block_tx_count: 0,
            committed_at: Micros::ZERO,
            leader_round: Round(sequence),
        };
        node.committed_log = (5..10).map(entry).collect();
        node.commit_seq = 10;
        for (from, next_seq, want) in [(1, 0, 5..10), (2, 7, 7..10), (3, 12, 10..10)] {
            let request = ConsensusMsg::StateRequest {
                from_round: Round(0),
                next_seq,
            };
            node.on_message(PartyId(from), request, &mut ctx);
            let outbox = ctx.take_outbox();
            let [(to, ConsensusMsg::StateReply { committed, .. })] = &outbox[..] else {
                panic!("one reply expected: {outbox:?}");
            };
            assert_eq!(*to, PartyId(from));
            let sequences: Vec<u64> = committed.iter().map(|c| c.sequence).collect();
            assert_eq!(sequences, want.collect::<Vec<u64>>(), "next_seq {next_seq}");
        }
    }

    #[test]
    fn garbage_collection_prunes_vote_and_no_vote_rounds() {
        // The checkpoint keeps only rounds at or above the horizon, so a
        // live node must not keep more of any per-round fact: it and its
        // restarted self would hold different state.
        let (mut node, _) = test_node(4, 0);
        let sig = clanbft_crypto::Signature([1u8; 64]);
        for r in 0..40 {
            let state = node.rounds.touch(Round(r)).unwrap();
            state.record_vote(PartyId(0), Digest::ZERO);
            state.record_timeout(PartyId(1), sig, sig);
            state.form_certs(Round(r), 4);
            (state.voted, state.no_voted) = (true, true);
        }
        node.last_committed = Some(Round(39));
        node.prune_to_horizon();
        let horizon = node.dag.horizon();
        assert!(horizon > Round(0), "nothing was collected");
        for r in (0..40).map(Round) {
            let facts = node.rounds.get(r).map(|s| {
                let vote = s.vote_count(&Digest::ZERO) == 1 && s.voted_for(PartyId(0)).is_some();
                let timeout = s.announced(PartyId(1)) && s.certs.is_some();
                [vote, timeout, s.voted, s.no_voted]
            });
            let kept = if r >= horizon { [true; 4] } else { [false; 4] };
            assert_eq!(facts.unwrap_or_default(), kept, "{r:?}");
        }
        let above: Vec<Round> = (horizon.0..40).map(Round).collect();
        let cp = node.snapshot();
        assert_eq!((cp.voted, cp.no_voted), (above.clone(), above));
    }
}
