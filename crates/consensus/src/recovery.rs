//! Crash recovery for [`SailfishNode`]: WAL replay, DAG checkpoints, peer
//! state transfer, and epoch-based clan rotation.
//!
//! Durability contract (persist-before-send): every externally visible
//! consensus action — proposal, leader vote, timeout announcement, commit
//! decision — hits the WAL before its message is queued, and nothing queued
//! leaves before its handler returns (the node and the broadcast engine
//! only queue on the handler's `Ctx`). A restarted node therefore cannot
//! equivocate (it re-broadcasts the identical persisted proposal), cannot
//! double-vote, cannot vote after a no-vote, and resumes its commit
//! sequence exactly where it stopped.
//!
//! The WAL records decisions and replay derives their consequences: for a
//! commit record (a leader round) it runs the live node's
//! `SailfishNode::order_decision`, `fold_commit` and `prune_to_horizon` on
//! the DAG rebuilt so far, so the order, the sequence numbers and the epoch
//! decisions come out as they were. A checkpoint holds the whole DAG, and
//! state adopted from peers becomes durable by installing one.
//!
//! Recovery layers, cheapest first:
//!
//! 1. **Checkpoint + WAL replay** (this module, `SailfishNode::rebuild_from`):
//!    rebuilds round position, vote sets, the DAG, the commit cursor, epoch
//!    decisions and evidence entirely from local disk — no network.
//! 2. **Peer state transfer** (`SailfishNode::on_state_request` /
//!    `SailfishNode::on_state_reply`): the restarted node multicasts a
//!    `StateRequest` carrying its round and commit-sequence frontiers; each
//!    peer answers a requester with one `StateReply` per round of progress
//!    (the pull rate-limit pattern) holding its live DAG window and its
//!    committed-order suffix. The requester keeps each responder's first
//!    reply until `f+1` replied or its round timer fires, and adopts what
//!    `f+1` of them shipped identically (`transfer::agree`), so no single
//!    Byzantine peer can forge history.
//! 3. **Epoch rotation** (`SailfishNode::decide_epochs_up_to`): at fixed
//!    positions of the agreed total order, every party deterministically
//!    replaces clan members whose newest committed vertex lags the decision
//!    boundary by more than `ROTATION_MISS_K` rounds — a crashed clan
//!    member loses its seat without the pipeline ever stopping.

use crate::messages::{CommittedRec, ConsensusMsg};
use crate::node::{new_ingress, CommittedVertex, SailfishNode};
use crate::payload::MergedPayload;
use crate::trackers::RoundState;
use crate::transfer::{agree, Reply};
use clanbft_committee::rotate_single_clan;
use clanbft_rbc::ClanTopology;
use clanbft_simnet::protocol::Ctx;
use clanbft_storage::{Checkpoint, EpochEntry, ProposalEntry, Recovered, WalRecord};
use clanbft_telemetry::{counters, Event};
use clanbft_types::{Micros, PartyId, Round, Vertex};
use std::collections::BTreeMap;
use std::sync::Arc;

/// How many rounds below its own a restarted party asks peers to ship in
/// its post-restart state transfer.
const CATCHUP_ROUNDS: u64 = 8;
/// A clan member whose last committed vertex is more than this many rounds
/// behind the epoch decision boundary is voted dead at the next rotation.
const ROTATION_MISS_K: u64 = 4;

/// Client-side bookkeeping of one post-restart state transfer: the replies,
/// until `SailfishNode::finish_catchup` applies what they agree on.
pub struct CatchupState {
    /// Window floor echoed by every reply of this transfer.
    from_round: u64,
    /// The first reply of each responder.
    replies: BTreeMap<PartyId, Reply>,
}

impl SailfishNode {
    /// Appends the record `rec` builds to the WAL; durable before return.
    /// Memory-only, the record is never built.
    pub(crate) fn log_wal(&mut self, rec: impl FnOnce() -> WalRecord) {
        if let Some(storage) = self.storage.as_mut() {
            storage.log(&rec()).expect("WAL append must succeed");
        }
    }

    // --- construction-time rebuild (silent: no sends, no events) -----------

    /// Rebuilds consensus state from a checkpoint plus the WAL suffix.
    ///
    /// Runs inside [`SailfishNode::new`], before the node touches the
    /// network: no messages are sent, no telemetry events are emitted and
    /// nothing is re-logged — the state is reconstructed exactly as the
    /// records describe it.
    pub(crate) fn rebuild_from(&mut self, rec: Recovered) {
        if rec.is_empty() {
            return;
        }
        self.recovered = true;
        self.recovered_records = rec.records.len() as u64;
        if let Some(cp) = rec.checkpoint {
            self.apply_checkpoint(cp);
        }
        for record in rec.records {
            self.apply_record(record);
        }
        self.rbc.note_round(self.current_round);
    }

    fn apply_checkpoint(&mut self, cp: Checkpoint) {
        self.current_round = cp.current_round;
        self.last_committed = cp.last_committed;
        self.commit_seq = cp.commit_seq;
        self.last_checkpoint_round = cp.last_committed.map(|r| r.0).unwrap_or(0);
        self.next_seq = cp.next_tx_seq;
        self.stopped_proposing = cp.stopped_proposing;
        // The round window starts at the horizon, as the DAG does below;
        // the snapshot listed no round under it.
        self.rounds.prune_below(cp.horizon);
        for round in cp.voted {
            self.rounds.touch(round).expect("in the window").voted = true;
        }
        for round in cp.no_voted {
            self.rounds.touch(round).expect("in the window").no_voted = true;
        }
        if cp.committed_round_by.len() == self.cfg.tribe().n() {
            self.committed_round_by = cp.committed_round_by;
        }
        // Decisions from before the WAL was rotated cannot be re-derived:
        // the checkpoint carries them, and replay decides from the next.
        for entry in cp.epochs {
            self.install_epoch_entry(entry);
        }
        for ev in cp.evidence {
            self.keep_evidence(ev, true);
        }
        if let Some(p) = cp.last_proposal {
            self.restore_proposal(p);
        }
        // The horizon first: vertices at it reference parents below it,
        // which a raised horizon makes the DAG treat as present. Then the
        // vertices parents-first, pending ones included.
        self.dag.prune_below(cp.horizon);
        for v in cp.vertices {
            self.dag.insert_shared(Arc::new(v), None);
        }
        for r in cp.ordered {
            self.dag.mark_ordered(r);
        }
    }

    fn apply_record(&mut self, record: WalRecord) {
        match record {
            WalRecord::Proposed { proposal } => {
                self.current_round = self.current_round.max(proposal.vertex.round);
                // The cursor moves past the block's last batch; an empty
                // block leaves it where it was.
                if let Some(last) = proposal.block.batches.last() {
                    self.next_seq = last.first_seq + u64::from(last.count);
                }
                self.restore_proposal(proposal);
            }
            // The live node acted above its horizon, and replay prunes alike.
            WalRecord::Voted { round } => {
                self.rounds.touch(round).expect("in the window").voted = true;
                self.current_round = self.current_round.max(round);
            }
            WalRecord::NoVoted { round } => {
                self.rounds.touch(round).expect("in the window").no_voted = true;
                self.current_round = self.current_round.max(round);
            }
            WalRecord::Accepted { vertex } => {
                self.dag.insert_shared(Arc::new(vertex), None);
            }
            WalRecord::Committed { leader_round } => {
                // The live node committed a live leader vertex, and the
                // records before this one rebuilt the DAG it did so on.
                let leader = self.schedule.leader_vertex(leader_round);
                assert!(
                    self.dag.get(&leader).is_some(),
                    "replayed {leader:?}: not live"
                );
                // Only the state step runs: the incarnation that committed
                // these emitted them, and traced the rotations re-decided
                // here.
                for vref in self.order_decision(leader_round) {
                    self.fold_commit(vref, leader_round);
                }
                self.prune_to_horizon();
            }
            WalRecord::Evidence { evidence } => {
                self.keep_evidence(evidence, true);
            }
        }
    }

    /// Restores this node's own newest proposal: what a restart
    /// re-broadcasts.
    fn restore_proposal(&mut self, p: ProposalEntry) {
        self.last_proposal = Some(p);
    }

    /// Installs a checkpointed epoch decision's topology into the RBC engine
    /// and records the decision.
    fn install_epoch_entry(&mut self, entry: EpochEntry) {
        let tribe = self.cfg.tribe();
        let topo = if entry.clans.len() <= 1 {
            let members: Vec<PartyId> = entry
                .clans
                .first()
                .map(|c| c.iter().map(|p| PartyId(*p)).collect())
                .unwrap_or_else(|| tribe.parties().collect());
            if members.len() >= tribe.n() {
                ClanTopology::whole_tribe(tribe)
            } else {
                ClanTopology::single_clan(tribe, members)
            }
        } else {
            ClanTopology::multi_clan(
                tribe,
                entry
                    .clans
                    .iter()
                    .map(|c| c.iter().map(|p| PartyId(*p)).collect())
                    .collect(),
            )
        };
        self.rbc.install_epoch(entry.from_round, Arc::new(topo));
        self.epochs.push(entry);
    }

    // --- post-restart resumption (the first networked step) ----------------

    /// Re-enters the network after [`SailfishNode::new`] rebuilt the state:
    /// emits the recovery span, re-broadcasts the persisted proposal (or
    /// proposes fresh if none was durable), re-arms the round timer and
    /// requests a peer state transfer for anything missed while down.
    pub(crate) fn post_restart(&mut self, ctx: &mut Ctx<ConsensusMsg>) {
        let now = ctx.now();
        self.cfg.telemetry.event(
            now,
            self.cfg.me,
            Event::RecoveryCompleted {
                round: self.current_round,
                wal_records: self.recovered_records,
                commit_seq: self.commit_seq,
            },
        );
        // The ingress clock restarts with the process: client traffic that
        // would have arrived during the outage is lost, not replayed in one
        // burst. Tx sequence numbers continue from the durable cursor.
        self.last_proposal_at = now;
        match self.last_proposal.clone() {
            Some(p) if p.vertex.round == self.current_round => {
                // Identical re-broadcast: peers that already echoed it just
                // re-ack (RBC dedups by digest), fresh peers make progress.
                let round = p.vertex.round;
                self.rbc
                    .broadcast(round, MergedPayload::new(p.vertex, p.block), ctx);
                self.flush(ctx);
            }
            _ => {
                // Nothing durable for the current round: either a fresh disk
                // or the node stopped proposing. `propose` handles both.
                self.propose(self.current_round, ctx);
                self.flush(ctx);
            }
        }
        ctx.set_timer(self.cfg.timeout, self.current_round.0);
        // Ask peers for everything we might have missed while down. Both
        // frontiers travel with the request: rounds for the DAG window,
        // sequences for the committed-order suffix.
        let from = Round(self.current_round.0.saturating_sub(CATCHUP_ROUNDS));
        let next_seq = self.commit_seq;
        self.catchup = Some(CatchupState {
            from_round: from.0,
            replies: BTreeMap::new(),
        });
        let me = self.cfg.me;
        let peers: Vec<PartyId> = self.cfg.tribe().parties().filter(|p| *p != me).collect();
        ctx.multicast(
            peers,
            ConsensusMsg::StateRequest {
                from_round: from,
                next_seq,
            },
        );
    }

    // --- state transfer: server side ---------------------------------------

    /// Serves one state transfer: the live DAG window from `from_round` and
    /// the committed-order suffix from `next_seq`, in one reply. A peer is
    /// answered only for a `from_round` above the last one it was served and
    /// not above this node's own round: a crashing-and-rejoining peer asks
    /// again with a later round, while a flooding peer gets at most one
    /// window per round of progress, whatever rounds it names, and the
    /// bookkeeping is one entry per peer.
    pub(crate) fn on_state_request(
        &mut self,
        from: PartyId,
        from_round: Round,
        next_seq: u64,
        ctx: &mut Ctx<ConsensusMsg>,
    ) {
        if from == self.cfg.me {
            return;
        }
        match self.next_servable_state.get_mut(from.idx()) {
            Some(next) if (*next..=self.current_round.0).contains(&from_round.0) => {
                *next = from_round.0 + 1;
            }
            _ => {
                self.cfg.telemetry.add(counters::REJECTED_DUPLICATE, 1);
                return;
            }
        }
        self.cfg.telemetry.add(counters::STATE_TRANSFER_REQUESTS, 1);
        let vertices: Vec<Arc<Vertex>> = self
            .dag
            .live_vertices_from(from_round)
            .into_iter()
            .cloned()
            .collect();
        // The log is contiguous from `commit_seq_base`: the suffix is a
        // slice, empty for a `next_seq` past its end.
        let skip = next_seq.saturating_sub(self.commit_seq_base());
        let start = usize::try_from(skip).unwrap_or(usize::MAX);
        let suffix = self.committed_log.get(start..).unwrap_or_default();
        let committed: Vec<CommittedRec> = suffix
            .iter()
            .map(|c| CommittedRec {
                sequence: c.sequence,
                vertex: c.vertex,
                block_digest: c.block_digest,
                block_bytes: c.block_bytes,
                block_tx_count: c.block_tx_count,
                leader_round: c.leader_round,
            })
            .collect();
        ctx.charge(self.cfg.cost.db_reads(vertices.len() + committed.len()));
        ctx.send(
            from,
            ConsensusMsg::StateReply {
                from_round,
                vertices,
                committed,
            },
        );
    }

    // --- state transfer: client side ---------------------------------------

    /// Keeps one responder's first reply, less the vertices of a bad shape;
    /// once `f+1` distinct responders replied, applies what they agree on.
    pub(crate) fn on_state_reply(
        &mut self,
        from: PartyId,
        from_round: Round,
        vertices: &[Arc<Vertex>],
        committed: &[CommittedRec],
        ctx: &mut Ctx<ConsensusMsg>,
    ) {
        let tribe = self.cfg.tribe();
        let Some(cat) = self.catchup.as_mut() else {
            return; // No transfer in flight (or it already completed).
        };
        if from_round.0 != cat.from_round || from == self.cfg.me {
            return;
        }
        ctx.charge(self.cfg.cost.db_reads(vertices.len() + committed.len()));
        if cat.replies.contains_key(&from) {
            return; // An honest responder answers one request once.
        }
        // Structural validation is local; certificate checks are
        // unnecessary — `f+1` matching copies include an honest node that
        // verified the vertex before accepting it.
        let well_formed = vertices.iter().filter(|v| v.validate_shape(tribe).is_ok());
        let reply = Reply {
            vertices: well_formed.cloned().collect(),
            committed: committed.to_vec(),
        };
        cat.replies.insert(from, reply);
        if cat.replies.len() >= tribe.small_quorum() {
            self.finish_catchup(ctx);
        }
    }

    /// Applies what the `f+1` responders agree on in one deterministic pass.
    pub(crate) fn finish_catchup(&mut self, ctx: &mut Ctx<ConsensusMsg>) {
        let Some(cat) = self.catchup.take() else {
            return;
        };
        let now = ctx.now();
        let f1 = self.cfg.tribe().small_quorum();
        let (order, window) = agree(&cat.replies, f1, self.commit_seq);

        // 1. The committed-order suffix, contiguous from our frontier.
        for c in order {
            // Emitted like a local commit, but its block is not queued for
            // execution and `commit.vertices` (vertices ordered *here*)
            // does not count it.
            let (sequence, rotated) = self.fold_commit(c.vertex, c.leader_round);
            let entry = CommittedVertex {
                sequence,
                vertex: c.vertex,
                block_digest: c.block_digest,
                block_bytes: c.block_bytes,
                block_tx_count: c.block_tx_count,
                committed_at: now,
                leader_round: c.leader_round,
            };
            self.emit_commit(entry, rotated);
        }

        // 2. The live DAG window, parents first. When the window floor is
        //    above our horizon *and* the adopted order covers everything
        //    below it, fast-forward the horizon: vertices referencing
        //    pre-window parents then insert as live instead of pending
        //    forever (their history is committed, not missing).
        let mut released = Vec::new();
        if let Some(floor) = window.first().map(|(v, _)| v.round) {
            if floor > self.dag.horizon() && self.last_committed.is_some_and(|lc| lc >= floor) {
                released = self.prune_below(floor);
            }
        }
        // Inserted without voting, telemetry or weak-edge tracking (as on
        // WAL replay); step 5 retries the commits this skips.
        for (v, id) in window {
            if !self.dag.is_known(&v.reference()) {
                self.dag.insert_shared(v, Some(id));
            }
        }

        // 3. If the fast-forward pruned past our stranded round, enter the
        //    window floor directly: everything below it is committed, so
        //    the usual quorum-over-previous-round admission is vacuously
        //    satisfied, and `try_advance` can walk the adopted rounds from
        //    there (a round stranded below the horizon would never regrow
        //    the quorum `try_advance` checks for).
        //    We do not propose *at* the floor — its parent round is below
        //    the new horizon, so there are no strong edges to cite; the
        //    first post-jump proposal happens at floor+1 via `try_advance`,
        //    with the adopted floor vertices as parents.
        let floor = self.dag.horizon();
        if self.current_round < floor {
            self.current_round = floor;
            self.rbc.note_round(floor);
            ctx.set_timer(self.cfg.timeout, floor.0);
        }
        // Nothing of steps 1–3 went to the WAL: one checkpoint makes the
        // adopted order, the agreed window and the round jump durable, before
        // anything that builds on them is logged or sent. Only then may the
        // vertices the fast-forward released commit.
        self.install_checkpoint();
        self.on_live(released, now);

        // 4. Walk the adopted rounds *silently*: every crossed round already
        //    carries a quorum without us, so proposing there would mint
        //    doomed stragglers (peers weak-edge at most f late vertices per
        //    proposal, and the tribe is far ahead). The walk uses
        //    `try_advance`'s admission rule, trusting the adopted commits.
        let before = self.current_round;
        while self.round_complete(self.current_round, true) {
            self.current_round = self.current_round.next();
        }
        if self.current_round > before {
            self.enter_round(self.current_round, ctx);
        }

        // 5. Resume: restored rounds may now satisfy advancement, and
        //    leaders whose votes piled up while we were catching up may
        //    commit (silent inserts skip the usual leader-live triggers).
        let start = self.last_committed.map(|r| r.0 + 1).unwrap_or(0);
        let end = self.current_round.0;
        for r in start..=end {
            self.try_commit(Round(r), now);
        }
        self.try_advance(ctx);
    }

    // --- checkpoints --------------------------------------------------------

    /// Installs a checkpoint once the commit frontier moved
    /// `checkpoint_interval` leader rounds past the previous one.
    pub(crate) fn maybe_checkpoint(&mut self) {
        let due = self.last_checkpoint_round + self.cfg.checkpoint_interval;
        if self.last_committed.is_some_and(|lc| lc.0 >= due) {
            self.install_checkpoint();
        }
    }

    /// Installs [`Self::snapshot`] as the checkpoint, which rotates the WAL,
    /// and restarts the cadence from the commit frontier (storage on only).
    pub(crate) fn install_checkpoint(&mut self) {
        let Some(mut storage) = self.storage.take() else {
            return;
        };
        self.last_checkpoint_round = self.last_committed.map_or(0, |r| r.0);
        storage
            .install_checkpoint(&self.snapshot())
            .expect("checkpoint install must succeed");
        self.storage = Some(storage);
    }

    /// This node's durable state as a checkpoint, which a node rebuilt from
    /// it alone holds again: everything from the DAG's horizon on, the DAG
    /// whole (pending vertices and every ordered mark included).
    pub fn snapshot(&self) -> Checkpoint {
        let horizon = self.dag.horizon();
        let flagged = |flag: fn(&RoundState) -> bool| {
            let rounds = self.rounds.iter().filter(|(_, state)| flag(state));
            rounds.map(|(round, _)| round).collect()
        };
        let vertices = self.dag.vertices_from(horizon);
        Checkpoint {
            current_round: self.current_round,
            last_committed: self.last_committed,
            commit_seq: self.commit_seq,
            next_tx_seq: self.next_seq,
            stopped_proposing: self.stopped_proposing,
            voted: flagged(|state| state.voted),
            no_voted: flagged(|state| state.no_voted),
            last_proposal: self.last_proposal.clone(),
            horizon,
            vertices: vertices.into_iter().map(|v| Vertex::clone(v)).collect(),
            ordered: self.dag.ordered_from(horizon),
            committed_round_by: self.committed_round_by.clone(),
            epochs: self.epochs.clone(),
            evidence: self.evidence.clone(),
        }
    }

    // --- epoch-based clan rotation ------------------------------------------

    /// Decides every epoch whose boundary the given committed round has
    /// reached. Called per ordered vertex *before* that vertex folds into
    /// the liveness table: the decision point is a fixed position of the
    /// agreed sequence, so all honest parties decide on identical state —
    /// and so does WAL replay, which is why decisions are not logged.
    /// Returns the `EpochRotated` events of the decisions that replaced a
    /// member, for the caller to trace or, on replay, to drop.
    ///
    /// Epoch `e` (1-based) governs rounds from `e * epoch_length`; its
    /// decision fires once the order reaches a vertex of round
    /// `e * epoch_length − epoch_length / 2` — the half-epoch slack absorbs
    /// commit lag so the new topology is installed before it takes effect.
    pub(crate) fn decide_epochs_up_to(&mut self, committed_round: Round) -> Vec<Event> {
        let mut rotated = Vec::new();
        let Some(len) = self.cfg.epoch_length else {
            return rotated;
        };
        loop {
            // `decide_epoch` records every decision.
            let epoch = self.epochs.last().map_or(1, |e| e.epoch + 1);
            let boundary = epoch * len - len / 2;
            if committed_round.0 < boundary {
                return rotated;
            }
            rotated.extend(self.decide_epoch(epoch, boundary, Round(epoch * len)));
        }
    }

    fn decide_epoch(&mut self, epoch: u64, boundary: u64, from_round: Round) -> Option<Event> {
        let tribe = self.cfg.tribe();
        let latest = Arc::clone(self.rbc.config().topology_at(Round(u64::MAX)));
        // Rotation applies to the single-clan variant with outsiders to
        // promote; other layouts re-record their standing membership.
        let rotation = if latest.clan_count() == 1 && latest.clan(0).members.len() < tribe.n() {
            let members = latest.clan(0).members.clone();
            let table = &self.committed_round_by;
            let is_dead = |p: PartyId| {
                let newest = table[p.idx()];
                newest == 0 || newest - 1 + ROTATION_MISS_K < boundary
            };
            rotate_single_clan(tribe.n(), &members, is_dead, self.cfg.schedule_seed, epoch)
        } else {
            None
        };
        let clans: Vec<Vec<u32>> = match &rotation {
            Some(rot) => vec![rot.members.iter().map(|p| p.0).collect()],
            None => (0..latest.clan_count())
                .map(|c| latest.clan(c).members.iter().map(|p| p.0).collect())
                .collect(),
        };
        let rotated = rotation.map(|rot| {
            let replaced = rot.added.len() as u64;
            self.rbc.install_epoch(
                from_round,
                Arc::new(ClanTopology::single_clan(tribe, rot.members)),
            );
            Event::EpochRotated {
                epoch,
                from_round,
                replaced,
            }
        });
        self.epochs.push(EpochEntry {
            epoch,
            from_round,
            clans,
        });
        rotated
    }

    // --- rotation-aware proposer duties -------------------------------------

    /// Whether this party proposes non-empty blocks in `round`: whether it
    /// sits inside its own dissemination clan under the epoch topology
    /// governing that round (only there can it validate what it proposes,
    /// paper §5).
    pub(crate) fn proposes_blocks_at(&self, round: Round) -> bool {
        let topo = self.rbc.config().topology_at(round);
        topo.receives_full(self.cfg.me, self.cfg.me)
    }

    /// Brings a client ingress to life for a party seated by rotation.
    /// Arrivals start now — a fresh seat does not inherit a backlog it never
    /// advertised capacity for.
    pub(crate) fn ensure_ingress(&mut self, now: Micros) {
        if self.ingress.is_none() {
            self.ingress = new_ingress(&self.cfg);
            if self.ingress.is_some() {
                self.last_proposal_at = now;
            }
        }
    }
}
