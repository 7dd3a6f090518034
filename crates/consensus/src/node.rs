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
//!    emitted in deterministic order (`a_deliver`).
//! 4. Advance to `r+1` once `2f+1` round-`r` vertices are live including
//!    the leader's — or a timeout certificate replaces it.
//!
//! Block payloads trail metadata by design: ordering and progress never
//! wait for block downloads (paper §5); execution does.

use crate::config::NodeConfig;
use crate::execution::Executor;
use crate::messages::{vote_digest, ConsensusMsg};
use crate::payload::MergedPayload;
use crate::schedule::LeaderSchedule;
use crate::trackers::{TimeoutTracker, VoteOutcome, VoteTracker};
use clanbft_crypto::{Authenticator, Digest};
use clanbft_dag::{order, Dag, InsertOutcome};
use clanbft_mempool::{plan_batches, ClientIngress, WorkloadSpec};
use clanbft_rbc::{parse_retry_token, Effects, EngineConfig, RbcEvent, TribeRbc};
use clanbft_simnet::protocol::{Ctx, Protocol};
use clanbft_telemetry::{counters, Event};
use clanbft_types::certs::{no_vote_digest, timeout_digest, NoVoteCert, TimeoutCert};
use clanbft_types::{Block, Encode, Evidence, Micros, PartyId, Round, TxBatch, Vertex, VertexRef};
use std::collections::{BTreeSet, HashMap, HashSet, VecDeque};
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

/// How this node learnt an entry of the total order it folds in.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum CommitOrigin {
    /// Ordered here: a leader this node committed swept the vertex in.
    Ordered,
    /// Adopted from `f+1` matching state-transfer responders after a
    /// restart: logged and emitted like a local commit, but its block is not
    /// queued for execution and `commit.vertices` (vertices ordered *here*)
    /// does not count it.
    Adopted,
    /// Replayed from this node's own WAL: already logged and emitted by a
    /// previous incarnation.
    Replayed,
}

/// At most this many evidence records are retained per node — enough for
/// any audit while bounding what an equivocation storm can allocate.
pub(crate) const EVIDENCE_CAP: usize = 256;

/// The Sailfish / single-clan / multi-clan node.
///
/// Fields are `pub(crate)` where the recovery layer ([`crate::recovery`])
/// rebuilds or serves them.
pub struct SailfishNode {
    pub(crate) cfg: NodeConfig,
    pub(crate) schedule: LeaderSchedule,
    pub(crate) auth: Arc<Authenticator>,
    pub(crate) rbc: TribeRbc<MergedPayload>,
    pub(crate) dag: Dag,
    votes: VoteTracker,
    timeouts: TimeoutTracker,

    pub(crate) current_round: Round,
    pub(crate) stopped_proposing: bool,
    /// Rounds this node voted in (leader vertex delivered in time).
    pub(crate) voted: HashSet<Round>,
    /// Rounds this node announced a timeout for (mutually exclusive with
    /// voting — the quorum-intersection hinge of commit safety).
    pub(crate) no_voted: HashSet<Round>,
    /// Certificates assembled from 2f+1 timeout announcements.
    pub(crate) certs_formed: HashMap<Round, (TimeoutCert, NoVoteCert)>,

    /// Misbehaviour proof records observed by this node (capped).
    pub(crate) evidence: Vec<Evidence>,
    /// `(round, culprit)` pairs already evidenced — one record per pair.
    pub(crate) evidence_keys: HashSet<(Round, PartyId)>,

    /// Full blocks held (clan member for the proposer, or own proposals).
    pub(crate) blocks: HashMap<VertexRef, Arc<Block>>,
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
    /// block, and the executor folding them into the state root.
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
    /// Commit sequences emitted by previous incarnations of this node: the
    /// global sequence number of `committed_log[0]`.
    pub(crate) commit_seq_base: u64,
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
    /// The next epoch number to decide (1-based).
    pub(crate) next_epoch: u64,
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

/// Cap on `TxBatch` runs per block: pulled transactions are coalesced by
/// arrival stamp, and arbitrarily fragmented stamps are merged down to this
/// many batches (earliest stamp wins, so measured latency only gets more
/// pessimistic).
const MAX_BATCHES_PER_BLOCK: usize = 16;

/// All that vertex intake may do to the enclosing handler: consume
/// simulated CPU time and stamp telemetry with it. It is not an `Effects`,
/// so intake cannot emit packets, events or timers that `flush` would have
/// to route.
struct Intake {
    now: Micros,
    charge: Micros,
}

impl Intake {
    fn at(now: Micros) -> Intake {
        Intake {
            now,
            charge: Micros::ZERO,
        }
    }

    fn charge(&mut self, c: Micros) {
        self.charge += c;
    }

    /// Handler start plus CPU time charged so far (`Effects::stamp`).
    fn stamp(&self) -> Micros {
        self.now + self.charge
    }
}

/// The client ingress a proposer fronts its proposals with (`None` for a
/// zero workload). The workload defaults to the historical synthetic model
/// so existing `txs_per_proposal` callers keep their behaviour.
pub(crate) fn new_ingress(cfg: &NodeConfig) -> Option<ClientIngress> {
    let workload = cfg.workload.unwrap_or(WorkloadSpec::Synthetic {
        txs_per_proposal: cfg.txs_per_proposal,
    });
    let idle = WorkloadSpec::Synthetic {
        txs_per_proposal: 0,
    };
    (workload != idle).then(|| {
        ClientIngress::new(
            workload,
            cfg.tx_bytes,
            cfg.mempool,
            cfg.sizer,
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
        engine_cfg.round_window = cfg.round_window;
        engine_cfg.pull_retry = cfg.pull_retry;
        let rbc =
            TribeRbc::signed(engine_cfg, Arc::clone(&auth)).with_sig_verification(cfg.verify_sigs);
        let ingress = if cfg.topology.receives_full(cfg.me, cfg.me) {
            new_ingress(&cfg)
        } else {
            None
        };
        let mut node = SailfishNode {
            schedule: LeaderSchedule::new(cfg.tribe.n(), cfg.schedule_seed),
            dag: Dag::new(cfg.tribe),
            votes: VoteTracker::new(cfg.tribe.n()),
            timeouts: TimeoutTracker::new(cfg.tribe.n()),
            rbc,
            auth,
            current_round: Round::GENESIS,
            stopped_proposing: false,
            voted: HashSet::new(),
            no_voted: HashSet::new(),
            certs_formed: HashMap::new(),
            evidence: Vec::new(),
            evidence_keys: HashSet::new(),
            blocks: HashMap::new(),
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
            commit_seq_base: 0,
            last_checkpoint_round: 0,
            last_proposal: None,
            committed_round_by: vec![0; cfg.tribe.n()],
            epochs: Vec::new(),
            next_epoch: 1,
            catchup: None,
            next_servable_state: vec![0; cfg.tribe.n()],
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

    /// A full block this node holds (own proposals and clan downloads).
    /// Disappears once garbage collection passes it (`gc_depth`).
    pub fn held_block(&self, vref: &VertexRef) -> Option<&Block> {
        self.blocks.get(vref).map(Arc::as_ref)
    }

    /// Whether this construction rebuilt durable state from disk.
    pub fn recovered(&self) -> bool {
        self.recovered
    }

    /// The global sequence number of this incarnation's first commit:
    /// everything below it was committed (and persisted) by previous lives
    /// of this node.
    pub fn commit_seq_base(&self) -> u64 {
        self.commit_seq_base
    }

    /// Epoch-rotation decisions this node has made or replayed, oldest
    /// first. Deterministic across the tribe: every honest party's list
    /// agrees on any shared prefix.
    pub fn epoch_decisions(&self) -> &[clanbft_storage::EpochEntry] {
        &self.epochs
    }

    /// Misbehaviour evidence this node has accumulated (consensus-level
    /// double votes and vote/timeout conflicts, plus RBC-level equivocation
    /// drained from the broadcast engine).
    pub fn evidence(&self) -> &[Evidence] {
        &self.evidence
    }

    /// Records locally-detected misbehaviour: once per `(round, culprit)`,
    /// counted, traced and retained up to [`EVIDENCE_CAP`].
    fn record_evidence(&mut self, ev: Evidence, now: Micros) {
        if !self.evidence_keys.insert((ev.round(), ev.culprit())) {
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
        if self.evidence.len() < EVIDENCE_CAP {
            if self.storage.is_some() {
                self.log_wal(&clanbft_storage::WalRecord::Evidence { evidence: ev });
            }
            self.evidence.push(ev);
        }
    }

    /// Pulls evidence the RBC engine recorded (it already counted and traced
    /// it) into this node's record.
    fn absorb_rbc_evidence(&mut self) {
        for ev in self.rbc.take_evidence() {
            if self.evidence_keys.insert((ev.round(), ev.culprit()))
                && self.evidence.len() < EVIDENCE_CAP
            {
                self.evidence.push(ev);
            }
        }
    }

    /// Round-window admission for direct consensus messages: discard what is
    /// behind the GC horizon or further ahead than the bounded buffers allow.
    fn admit_round(&mut self, round: Round) -> bool {
        if round < self.dag.horizon()
            || round.0 > self.current_round.0.saturating_add(self.cfg.round_window)
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
        // drains. Pulled transactions are coalesced into TxBatch runs by
        // arrival stamp so the measured latency keeps the queueing delay
        // real clients saw.
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

    pub(crate) fn propose(&mut self, round: Round, fx: &mut Effects<MergedPayload>, now: Micros) {
        let _prof = clanbft_profiler::scope("consensus.propose");
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
            debug_assert!(strong_edges.len() >= self.cfg.tribe.quorum());
            let leader_ref = self.schedule.leader_vertex(prev);
            if !strong_edges.contains(&leader_ref) {
                let (tcert, nvcert) = self
                    .certs_formed
                    .get(&prev)
                    .cloned()
                    .expect("advanced without leader vertex implies certificates");
                if self.schedule.is_leader(self.cfg.me, round) {
                    nvc = Some(nvcert);
                }
                tc = Some(tcert);
            }
            // Weak edges go only where these strong edges leave no path.
            weak_edges =
                self.dag
                    .weak_edges(&strong_edges, &mut self.late_arrivals, self.cfg.tribe.f());
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
                fx.stamp(),
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
            self.log_wal(&clanbft_storage::WalRecord::Proposed {
                vertex: (*payload.vertex).clone(),
                block: (*payload.block).clone(),
                next_tx_seq: self.next_seq,
            });
            self.last_proposal = Some(clanbft_storage::ProposalEntry {
                vertex: (*payload.vertex).clone(),
                block: (*payload.block).clone(),
            });
        }
        // Keep our own block regardless of clan membership (we produced it).
        self.blocks.insert(vref, Arc::clone(&payload.block));
        self.rbc.broadcast(round, payload, fx);
        if let Some(ingress) = self.ingress.as_mut() {
            ingress.note_proposed(vref);
        }
        self.last_proposal_at = now;
    }

    // --- vertex intake ------------------------------------------------------

    /// Validates and accepts a delivered vertex; idempotent. `id` is the
    /// vertex id as the broadcast layer computed it when it accepted the
    /// vertex (each node hashes a vertex once).
    fn process_vertex(
        &mut self,
        vertex: Arc<Vertex>,
        id: Digest,
        fx: &mut Intake,
        now: Micros,
        out: &mut Vec<ConsensusMsg>,
    ) {
        let _prof = clanbft_profiler::scope("consensus.process_vertex");
        let vref = vertex.reference();
        if self.dag.is_known(&vref) {
            return;
        }
        if !self.validate_vertex(&vertex, fx) {
            return;
        }
        fx.charge(
            self.cfg
                .cost
                .db_reads(vertex.strong_edges.len() + vertex.weak_edges.len()),
        );
        fx.charge(self.cfg.cost.db_write());
        debug_assert_eq!(id, vertex.id());
        if self.storage.is_some() {
            self.log_wal(&clanbft_storage::WalRecord::Accepted {
                vertex: (*vertex).clone(),
            });
        }

        // Leader vote (Sailfish's 1δ commit step).
        let round = vref.round;
        if self.schedule.leader_vertex(round) == vref
            && !self.voted.contains(&round)
            && !self.no_voted.contains(&round)
        {
            // Persist the vote before signing: a recovered node must never
            // vote twice, nor vote after having announced a timeout.
            if self.storage.is_some() {
                self.log_wal(&clanbft_storage::WalRecord::Voted { round });
            }
            self.voted.insert(round);
            fx.charge(self.cfg.cost.sign());
            self.cfg.telemetry.event(
                fx.stamp(),
                self.cfg.me,
                Event::LeaderVote {
                    round,
                    leader: vref.source,
                },
            );
            let sig = self.auth.sign_digest(&vote_digest(round, &id));
            out.push(ConsensusMsg::Vote {
                round,
                vertex_id: id,
                sig,
            });
        }

        match self.dag.insert_shared(vertex, Some(id)) {
            InsertOutcome::Live(new_live) => self.on_live(new_live, fx.stamp(), now),
            InsertOutcome::Pending => {
                self.cfg.telemetry.event(
                    fx.stamp(),
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
    /// for: trace them, remember the ones a proposal can no longer cite, and
    /// retry the commit of any leader among them.
    pub(crate) fn on_live(&mut self, new_live: Vec<VertexRef>, stamp: Micros, now: Micros) {
        if self.cfg.telemetry.enabled() {
            let pending = self.dag.pending_count() as u64;
            for live_ref in &new_live {
                self.cfg.telemetry.event(
                    stamp,
                    self.cfg.me,
                    Event::DagLive {
                        round: live_ref.round,
                        source: live_ref.source,
                        pending,
                    },
                );
            }
        }
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
    fn validate_vertex(&mut self, vertex: &Vertex, fx: &mut Intake) -> bool {
        if vertex.validate_shape(self.cfg.tribe).is_err() {
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
        let quorum = self.cfg.tribe.quorum();
        if self.schedule.leader_vertex(vertex.round) == vertex.reference() {
            let Some(nvc) = &vertex.nvc else { return false };
            fx.charge(self.cfg.cost.agg_verify(nvc.agg.count()));
            if nvc.round != prev {
                return false;
            }
            if self.cfg.verify_sigs && !nvc.verify(self.auth.registry(), quorum) {
                return false;
            }
            if !self.cfg.verify_sigs && nvc.agg.count() < quorum {
                return false;
            }
        } else {
            let Some(tc) = &vertex.tc else { return false };
            fx.charge(self.cfg.cost.agg_verify(tc.agg.count()));
            if tc.round != prev {
                return false;
            }
            if self.cfg.verify_sigs && !tc.verify(self.auth.registry(), quorum) {
                return false;
            }
            if !self.cfg.verify_sigs && tc.agg.count() < quorum {
                return false;
            }
        }
        true
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
        if self.votes.count(round, &id) < self.cfg.tribe.quorum() {
            return;
        }
        // Direct commit: resolve the indirect chain and emit the order.
        let schedule = self.schedule;
        let chain = order::commit_chain(&self.dag, self.last_committed, leader_ref, |r| {
            schedule.leader(r)
        });
        for vref in order::causal_order(&mut self.dag, &chain) {
            let Some(v) = self.dag.get(&vref) else {
                continue;
            };
            let entry = CommittedVertex {
                sequence: self.next_commit_seq(),
                vertex: vref,
                block_digest: v.block_digest,
                block_bytes: v.block_bytes,
                block_tx_count: v.block_tx_count,
                committed_at: now,
                leader_round: round,
            };
            self.fold_commit(entry, CommitOrigin::Ordered);
        }
        self.try_execute(now);
        self.garbage_collect(now);
        self.maybe_checkpoint();
    }

    /// Folds one entry of the total order into this node's state — the one
    /// place the commit cursor, the liveness table and the emitted log move,
    /// whichever way the entry was learnt (see [`CommitOrigin`]).
    pub(crate) fn fold_commit(&mut self, entry: CommittedVertex, origin: CommitOrigin) {
        let (vref, now) = (entry.vertex, entry.committed_at);
        let replayed = origin == CommitOrigin::Replayed;
        // Epoch rotation decides at fixed positions of the agreed sequence:
        // decide *before* folding this vertex into the liveness table, so
        // every party votes on identical state. (A replayed WAL carries the
        // decisions as records of their own.)
        if !replayed {
            self.decide_epochs_up_to(vref.round, now);
        }
        let newest = &mut self.committed_round_by[vref.source.idx()];
        *newest = (*newest).max(vref.round.0 + 1);
        self.last_committed = self.last_committed.max(Some(entry.leader_round));
        self.dag.mark_ordered(vref);
        if replayed {
            // Pre-crash commits are not re-emitted; only the cursor, the
            // ordered set and the liveness table move.
            self.commit_seq_base = self.commit_seq_base.max(entry.sequence + 1);
            return;
        }
        if self.storage.is_some() {
            self.log_wal(&clanbft_storage::WalRecord::Committed {
                sequence: entry.sequence,
                vertex: vref,
                block_digest: entry.block_digest,
                block_tx_count: entry.block_tx_count,
                leader_round: entry.leader_round,
            });
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
        if origin == CommitOrigin::Ordered {
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
        // Commit feedback for our own proposals: closed-loop clients submit
        // their next transaction the moment the previous commits.
        if vref.source == self.cfg.me {
            if let Some(ingress) = self.ingress.as_mut() {
                ingress.on_committed(vref, now);
            }
        }
    }

    pub(crate) fn next_commit_seq(&self) -> u64 {
        self.commit_seq_base + self.committed_log.len() as u64
    }

    fn try_execute(&mut self, now: Micros) {
        let Some(executor) = self.executor.as_mut() else {
            return;
        };
        while let Some(front) = self.exec_queue.front().copied() {
            let Some(block) = self.blocks.get(&front) else {
                break; // Block still downloading; execution lags consensus.
            };
            executor.execute(front, block, now);
            self.exec_queue.pop_front();
        }
    }

    fn garbage_collect(&mut self, now: Micros) {
        let Some(depth) = self.cfg.gc_depth else {
            return;
        };
        let Some(lc) = self.last_committed else {
            return;
        };
        if lc.0 <= depth {
            return;
        }
        let horizon = Round(lc.0 - depth);
        // Never collect blocks still queued for execution.
        let exec_floor = self.exec_queue.front().map(|r| r.round).unwrap_or(horizon);
        let horizon = horizon.min(exec_floor);
        let released = self.dag.prune_below(horizon);
        self.rbc.prune_below(horizon);
        self.votes.prune_below(horizon);
        self.timeouts.prune_below(horizon);
        self.blocks.retain(|r, _| r.round >= horizon);
        // The next proposal would drop these too; a node past `max_round`
        // makes none.
        self.late_arrivals.retain(|r| r.round >= horizon);
        self.certs_formed.retain(|r, _| *r >= horizon);
        // Evidence records stay (they are the audit trail, already capped);
        // only their dedup keys are pruned with the rest of the round state.
        self.evidence_keys.retain(|(r, _)| *r >= horizon);
        self.on_live(released, now, now);
    }

    // --- round advancement ---------------------------------------------------

    /// Round admission: `r` may be left once `2f+1` of its vertices are live
    /// including the leader's — or a timeout certificate replaces it. The
    /// post-restart walk over adopted rounds (`trust_commits`) also accepts a
    /// round the adopted order has visibly committed past: the volatile
    /// certificate store cannot vouch for timeout rounds this node slept
    /// through, but the transferred commits can.
    pub(crate) fn round_complete(&self, r: Round, trust_commits: bool) -> bool {
        self.dag.round_count(r) >= self.cfg.tribe.quorum()
            && (self.dag.get(&self.schedule.leader_vertex(r)).is_some()
                || self.certs_formed.contains_key(&r)
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
        let mut fx = Effects::at(ctx.now());
        self.propose(round, &mut fx, ctx.now());
        self.flush(fx, ctx);
        ctx.set_timer(self.cfg.timeout, round.0);
    }

    /// Samples bounded-buffer occupancy into gauges, once per round entry.
    /// The flight recorder logs these samples; a post-mortem correlates a
    /// stall with whichever buffer was filling when it happened.
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
        tel.gauge(
            counters::BUF_EVIDENCE_BACKLOG,
            (self.evidence.len() as u64).saturating_add(rbc.evidence_backlog),
        );
        if let Some(ingress) = &self.ingress {
            tel.gauge(counters::BUF_MEMPOOL_DEPTH, ingress.pool().depth() as u64);
        }
    }

    // --- effects plumbing -----------------------------------------------------

    /// Applies RBC effects: charges, consensus events, and outgoing packets.
    pub(crate) fn flush(&mut self, fx: Effects<MergedPayload>, ctx: &mut Ctx<ConsensusMsg>) {
        ctx.charge(fx.charge);
        // Vertex intake charges land once this set's packets are queued.
        let mut intake_charge = Micros::ZERO;
        let mut votes = Vec::new();
        for ev in fx.events {
            let mut intake = Intake::at(ctx.now());
            match ev {
                RbcEvent::Certified {
                    source,
                    round,
                    digest,
                } => {
                    // Act as soon as the vertex is certified, even if
                    // the block is still in flight (paper §5).
                    if let Some((meta, held)) = self.rbc.meta_of(round, source) {
                        if held == digest {
                            let vertex = Arc::clone(meta.arc());
                            self.process_vertex(vertex, digest, &mut intake, ctx.now(), &mut votes);
                        }
                    }
                }
                RbcEvent::DeliverFull {
                    source,
                    round,
                    digest,
                    payload,
                } => {
                    let vref = VertexRef { round, source };
                    self.blocks.insert(vref, Arc::clone(&payload.block));
                    self.process_vertex(
                        Arc::clone(payload.vertex.arc()),
                        digest,
                        &mut intake,
                        ctx.now(),
                        &mut votes,
                    );
                    self.try_execute(ctx.now());
                }
                RbcEvent::DeliverMeta { digest, meta, .. } => {
                    let vertex = Arc::clone(meta.arc());
                    self.process_vertex(vertex, digest, &mut intake, ctx.now(), &mut votes);
                }
                RbcEvent::EchoQuorum { .. } => {}
            }
            intake_charge += intake.charge;
        }
        for (to, pkt) in fx.out {
            to.queue(self.cfg.tribe, ConsensusMsg::Rbc(pkt), ctx);
        }
        for (delay, token) in fx.timers {
            ctx.set_timer(delay, token);
        }
        for msg in votes {
            // Votes go to everyone, ourselves included (loopback).
            ctx.multicast(self.cfg.tribe.parties(), msg);
        }
        ctx.charge(intake_charge);
        self.absorb_rbc_evidence();
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
        // A vote from a party that already announced a timeout for the same
        // round breaks the vote/no-vote exclusivity honest nodes maintain.
        if self.timeouts.announced(round, from) {
            self.record_evidence(
                Evidence::VoteTimeoutConflict { round, party: from },
                ctx.now(),
            );
            return;
        }
        match self.votes.record(round, vertex_id, from) {
            VoteOutcome::New(count) => {
                if count >= self.cfg.tribe.quorum() {
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
                .verify_digest(from.idx(), &timeout_digest(round), &timeout_sig)
                && self
                    .auth
                    .verify_digest(from.idx(), &no_vote_digest(round), &no_vote_sig);
            if !ok {
                self.cfg.telemetry.add(counters::REJECTED_BAD_SIG, 1);
                return;
            }
        }
        // The mirror of the check in `on_vote`: a timeout announcement from
        // a party whose vote we already counted is misbehaviour.
        if self.votes.voted(round, from).is_some() {
            self.record_evidence(
                Evidence::VoteTimeoutConflict { round, party: from },
                ctx.now(),
            );
            return;
        }
        let Some(count) = self.timeouts.record(round, from, timeout_sig, no_vote_sig) else {
            self.cfg.telemetry.add(counters::REJECTED_DUPLICATE, 1);
            return;
        };
        let quorum = self.cfg.tribe.quorum();
        if count >= quorum && !self.certs_formed.contains_key(&round) {
            let collected = self.timeouts.round(round).expect("just recorded");
            ctx.charge(self.cfg.cost.aggregate(count) + self.cfg.cost.agg_verify(count));
            let n = self.cfg.tribe.n();
            let tc = TimeoutCert::new(round, n, &collected.timeout_sigs);
            let nvc = NoVoteCert::new(round, n, &collected.no_vote_sigs);
            self.certs_formed.insert(round, (tc, nvc));
            self.cfg
                .telemetry
                .event(ctx.now(), self.cfg.me, Event::TimeoutCertFormed { round });
            self.cfg
                .telemetry
                .event(ctx.now(), self.cfg.me, Event::NoVoteCertFormed { round });
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
                let mut fx = Effects::at(ctx.now());
                self.rbc.handle(from, pkt, &mut fx);
                if fx.is_inert() {
                    // Two deliveries in three — an echo past the quorum, a
                    // certificate past the first — move a voter bit or
                    // nothing: no vertex came in, so no round can have
                    // completed (`try_advance` runs wherever one can).
                    ctx.charge(fx.charge);
                    self.absorb_rbc_evidence();
                    return;
                }
                self.flush(fx, ctx);
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
            // The snapshot header is informational (it shows up in traces);
            // chunk arrival and the `last` flag drive the client side.
            ConsensusMsg::StateSnapshot { .. } => {}
            ConsensusMsg::StateChunk {
                from_round,
                seq,
                last,
                vertices,
                committed,
            } => {
                self.on_state_chunk(from, *from_round, *seq, *last, vertices, committed, ctx);
            }
        }
    }

    fn on_timer(&mut self, token: u64, ctx: &mut Ctx<ConsensusMsg>) {
        // Pull-retry timers live in their own token namespace (high bit
        // set), disjoint from the plain round numbers used below.
        if let Some((round, source)) = parse_retry_token(token) {
            let mut fx = Effects::at(ctx.now());
            self.rbc.on_retry(round, source, &mut fx);
            self.flush(fx, ctx);
            return;
        }
        let round = Round(token);
        // A round timer expiring with a state transfer still open means the
        // remaining responders are slow or down: settle for whatever `f+1`
        // of them already agree on and rejoin — liveness must not hinge on
        // prompt peers (commits are suppressed while the transfer is open).
        if self.catchup.is_some() {
            self.finish_catchup(ctx);
        }
        if round != self.current_round {
            return; // Stale timer; the round already advanced.
        }
        let leader_delivered = self.dag.is_known(&self.schedule.leader_vertex(round));
        if leader_delivered || self.voted.contains(&round) || self.no_voted.contains(&round) {
            return;
        }
        // Announce the timeout: sign both the TC statement (round
        // advancement) and the NVC statement (the next leader's license to
        // skip the edge). Having announced, this node must never vote for
        // this round's leader vertex — persisted first, so not even a crash
        // lets it forget the exclusivity.
        if self.storage.is_some() {
            self.log_wal(&clanbft_storage::WalRecord::NoVoted { round });
        }
        self.no_voted.insert(round);
        self.cfg
            .telemetry
            .event(ctx.now(), self.cfg.me, Event::TimeoutAnnounced { round });
        ctx.charge(self.cfg.cost.sign() * 2);
        let timeout_sig = self.auth.sign_digest(&timeout_digest(round));
        let no_vote_sig = self.auth.sign_digest(&no_vote_digest(round));
        ctx.multicast(
            self.cfg.tribe.parties(),
            ConsensusMsg::Timeout {
                round,
                timeout_sig,
                no_vote_sig,
            },
        );
    }

    fn on_restart(&mut self, ctx: &mut Ctx<ConsensusMsg>) {
        // Rebuild from scratch through the normal constructor: it reopens
        // the storage directory and replays checkpoint + WAL silently. The
        // wall clock (not simulated time) measures the rebuild cost.
        let started = std::time::Instant::now();
        let cfg = self.cfg.clone();
        let auth = Arc::clone(&self.auth);
        *self = SailfishNode::new(cfg, auth);
        self.post_restart(started, ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clanbft_crypto::{Registry, Scheme};
    use clanbft_rbc::ClanTopology;
    use clanbft_types::TribeParams;

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
        cfg.txs_per_proposal = txs;
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
        let mut fx = Intake::at(Micros::ZERO);
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
        let d = timeout_digest(Round(0));
        let pairs: Vec<_> = (0..3).map(|i| (i, auths[i].sign_digest(&d))).collect();
        let mut with_tc = missing.clone();
        with_tc.tc = Some(TimeoutCert::new(Round(0), 4, &pairs));
        assert!(node.validate_vertex(&with_tc, &mut fx));
        // A TC for the wrong round: rejected.
        let mut wrong_round = missing.clone();
        let d5 = timeout_digest(Round(5));
        let pairs5: Vec<_> = (0..3).map(|i| (i, auths[i].sign_digest(&d5))).collect();
        wrong_round.tc = Some(TimeoutCert::new(Round(5), 4, &pairs5));
        assert!(!node.validate_vertex(&wrong_round, &mut fx));
        // An undersized TC: rejected.
        let mut thin = missing.clone();
        thin.tc = Some(TimeoutCert::new(Round(0), 4, &pairs[..2]));
        assert!(!node.validate_vertex(&thin, &mut fx));
    }

    #[test]
    fn leader_vertex_needs_nvc_not_tc() {
        // n = 4: leader(1) = P1. P1's round-1 vertex without an edge to the
        // round-0 leader vertex needs an NVC (a TC does not suffice).
        let (mut node, auths) = test_node(4, 0);
        let mut fx = Intake::at(Micros::ZERO);
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
        let td = timeout_digest(Round(0));
        let tc_pairs: Vec<_> = (0..3).map(|i| (i, auths[i].sign_digest(&td))).collect();
        let mut with_tc_only = bare.clone();
        with_tc_only.tc = Some(TimeoutCert::new(Round(0), 4, &tc_pairs));
        assert!(
            !node.validate_vertex(&with_tc_only, &mut fx),
            "a TC alone must not license the next leader"
        );
        let nd = no_vote_digest(Round(0));
        let nvc_pairs: Vec<_> = (0..3).map(|i| (i, auths[i].sign_digest(&nd))).collect();
        let mut with_nvc = bare.clone();
        with_nvc.nvc = Some(NoVoteCert::new(Round(0), 4, &nvc_pairs));
        assert!(node.validate_vertex(&with_nvc, &mut fx));
    }

    #[test]
    fn malformed_shape_rejected() {
        let (mut node, _) = test_node(4, 0);
        let mut fx = Intake::at(Micros::ZERO);
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
        let (mut intake, mut votes) = (Intake::at(Micros::ZERO), Vec::new());
        for v in [&crafted, &honest] {
            node.process_vertex(Arc::clone(v), v.id(), &mut intake, Micros::ZERO, &mut votes);
        }
        assert!(
            node.dag.is_known(&honest.reference()),
            "parents missing: buffered"
        );
        assert!(!node.dag.is_known(&crafted.reference()));
        assert_eq!(node.dag.pending_count(), 1);

        // The same two vertices offered by f+1 state-transfer responders.
        let cost = node.cfg.cost;
        let mut ctx = Ctx::new(PartyId(0), Micros(1), &cost);
        node.on_restart(&mut ctx);
        for from in [1, 2] {
            let chunk = [Arc::clone(&crafted), Arc::clone(&honest)];
            node.on_state_chunk(PartyId(from), Round(0), 0, true, &chunk, &[], &mut ctx);
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
            let (mut intake, mut votes) = (Intake::at(Micros::ZERO), Vec::new());
            for v in vertices {
                node.process_vertex(Arc::clone(v), v.id(), &mut intake, Micros::ZERO, &mut votes);
            }
            intake.charge
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
            let chunk = [&crowded, &repeated, &honest].map(Arc::clone);
            node.on_state_chunk(PartyId(from), Round(0), 0, true, &chunk, &[], &mut ctx);
        }
        assert!(node.catchup.is_none(), "f+1 responders settle the transfer");
        refused(&node);
    }

    #[test]
    fn vertex_naming_another_instance_is_refused_live_and_in_a_pull_response() {
        use clanbft_rbc::{RbcMsg, RbcPacket};
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
            cfg.txs_per_proposal = 500;
            (SailfishNode::new(cfg, auth), ())
        };
        let block = node.build_block(Round(1), Micros::from_secs(1));
        assert_eq!(block.tx_count(), 0);
        assert!(block.batches.is_empty());
    }
}
