//! Crash recovery for [`SailfishNode`]: WAL replay, DAG checkpoints, peer
//! state transfer, and epoch-based clan rotation.
//!
//! Durability contract (persist-before-send): every externally visible
//! consensus action — proposal, leader vote, timeout announcement, commit —
//! hits the WAL before its message leaves the node. A restarted node
//! therefore cannot equivocate (it re-broadcasts the identical persisted
//! proposal), cannot double-vote, cannot vote after a no-vote, and resumes
//! its commit sequence exactly where it stopped.
//!
//! Recovery layers, cheapest first:
//!
//! 1. **Checkpoint + WAL replay** (this module, [`SailfishNode::rebuild_from`]):
//!    rebuilds round position, vote sets, the live DAG window, the commit
//!    cursor and epoch decisions entirely from local disk — no network.
//! 2. **Peer state transfer** ([`SailfishNode::on_state_request`] /
//!    [`SailfishNode::on_state_chunk`]): the restarted node multicasts a
//!    `StateRequest` carrying its round and commit-sequence frontiers; peers
//!    answer a requester once per round of progress (the pull rate-limit
//!    pattern) with their live DAG window and their committed-order suffix. The
//!    requester adopts a vertex or a commit entry only when `f+1` responders
//!    shipped an identical copy, so no single Byzantine peer can forge
//!    history.
//! 3. **Epoch rotation** ([`SailfishNode::decide_epochs_up_to`]): at fixed
//!    positions of the agreed total order, every party deterministically
//!    replaces clan members whose newest committed vertex lags the decision
//!    boundary by more than `rotation_miss_k` rounds — a crashed clan member
//!    loses its seat without the pipeline ever stopping.

use crate::messages::{CommittedRec, ConsensusMsg};
use crate::node::{new_ingress, CommitOrigin, CommittedVertex, SailfishNode, EVIDENCE_CAP};
use crate::payload::MergedPayload;
use clanbft_committee::rotate_single_clan;
use clanbft_crypto::Digest;
use clanbft_rbc::{ClanTopology, Effects};
use clanbft_simnet::protocol::{Ctx, Message};
use clanbft_storage::{Checkpoint, EpochEntry, Recovered, WalRecord};
use clanbft_telemetry::{counters, Event};
use clanbft_types::{Micros, PartyId, Round, Vertex, VertexRef};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// Vertices per state-transfer chunk — bounds any single message.
const STATE_CHUNK_VERTICES: usize = 32;
/// Committed-order entries per state-transfer chunk.
const STATE_CHUNK_COMMITS: usize = 256;

/// Client-side bookkeeping of one post-restart state transfer.
///
/// Everything accumulates until `f+1` responders sent their final chunk;
/// only then is the agreed subset applied in one deterministic pass
/// (commits in sequence order, vertices parents-first).
pub struct CatchupState {
    /// Window floor echoed by every chunk of this transfer.
    from_round: u64,
    /// Candidate vertices: content id → (vertex, confirming responders).
    vertices: HashMap<Digest, (Arc<Vertex>, HashSet<PartyId>)>,
    /// Candidate committed-order entries → confirming responders.
    commits: HashMap<CommittedRec, HashSet<PartyId>>,
    /// Per-responder chunk accounting: indices received plus the total chunk
    /// count (known once the `last`-flagged chunk arrives). The network
    /// reorders freely, so a responder counts as done only when every index
    /// of its announced total has landed — not when the last-flagged chunk
    /// happens to arrive.
    progress: HashMap<PartyId, (HashSet<u32>, Option<u32>)>,
}

impl CatchupState {
    /// Responders whose complete chunk set has arrived.
    fn complete(&self) -> usize {
        self.progress
            .values()
            .filter(|(got, total)| total.is_some_and(|t| got.len() as u32 == t))
            .count()
    }
}

impl SailfishNode {
    /// Appends one record to the WAL; durable before return. Callers gate on
    /// `self.storage.is_some()` to skip the record cloning when memory-only.
    pub(crate) fn log_wal(&mut self, rec: &WalRecord) {
        if let Some(storage) = self.storage.as_mut() {
            storage.log(rec).expect("WAL append must succeed");
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
        // Epoch decisions were logged at every boundary (changed or not), so
        // the replayed list alone positions the next decision.
        self.next_epoch = self.epochs.last().map(|e| e.epoch + 1).unwrap_or(1);
        self.rbc.note_round(self.current_round);
    }

    fn apply_checkpoint(&mut self, cp: Checkpoint) {
        self.current_round = cp.current_round;
        self.last_committed = cp.last_committed;
        self.commit_seq_base = cp.commit_seq;
        self.last_checkpoint_round = cp.last_committed.map(|r| r.0).unwrap_or(0);
        self.next_seq = cp.next_tx_seq;
        self.stopped_proposing = cp.stopped_proposing;
        self.voted.extend(cp.voted);
        self.no_voted.extend(cp.no_voted);
        if cp.committed_round_by.len() == self.cfg.tribe.n() {
            self.committed_round_by = cp.committed_round_by;
        }
        for entry in cp.epochs {
            self.install_epoch_entry(entry);
        }
        if let Some(p) = cp.last_proposal {
            self.blocks
                .insert(p.vertex.reference(), Arc::new(p.block.clone()));
            self.last_proposal = Some(p);
        }
        // Raise the DAG horizon to the snapshot's floor first: vertices at
        // the floor reference parents the checkpoint intentionally dropped,
        // and a raised horizon makes the DAG treat those as present.
        let mut vertices = cp.vertices;
        vertices.sort_by_key(|v| (v.round, v.source));
        if let Some(min) = vertices.first().map(|v| v.round) {
            self.dag.prune_below(min);
        }
        for v in vertices {
            self.dag.insert_shared(Arc::new(v), None);
        }
        for r in cp.ordered {
            self.dag.mark_ordered(r);
        }
    }

    fn apply_record(&mut self, record: WalRecord) {
        match record {
            WalRecord::Proposed {
                vertex,
                block,
                next_tx_seq,
            } => {
                self.current_round = self.current_round.max(vertex.round);
                self.next_seq = self.next_seq.max(next_tx_seq);
                self.blocks
                    .insert(vertex.reference(), Arc::new(block.clone()));
                self.last_proposal = Some(clanbft_storage::ProposalEntry { vertex, block });
            }
            WalRecord::Voted { round } => {
                self.voted.insert(round);
                self.current_round = self.current_round.max(round);
            }
            WalRecord::NoVoted { round } => {
                self.no_voted.insert(round);
                self.current_round = self.current_round.max(round);
            }
            WalRecord::Accepted { vertex } => {
                self.dag.insert_shared(Arc::new(vertex), None);
            }
            WalRecord::Committed {
                sequence,
                vertex,
                block_digest,
                block_tx_count,
                leader_round,
            } => {
                // The record carries neither the wire size nor the commit
                // time; a replayed entry is not re-emitted, so neither is
                // read.
                let entry = CommittedVertex {
                    sequence,
                    vertex,
                    block_digest,
                    block_bytes: 0,
                    block_tx_count,
                    committed_at: Micros::ZERO,
                    leader_round,
                };
                self.fold_commit(entry, CommitOrigin::Replayed);
            }
            WalRecord::Evidence { evidence } => {
                if self
                    .evidence_keys
                    .insert((evidence.round(), evidence.culprit()))
                    && self.evidence.len() < EVIDENCE_CAP
                {
                    self.evidence.push(evidence);
                }
            }
            WalRecord::EpochDecided {
                epoch,
                from_round,
                clans,
            } => {
                self.install_epoch_entry(EpochEntry {
                    epoch,
                    from_round,
                    clans,
                });
            }
        }
    }

    /// Installs a decided epoch's topology into the RBC engine and records
    /// the decision (idempotent per `from_round`; replay-safe).
    fn install_epoch_entry(&mut self, entry: EpochEntry) {
        let tribe = self.cfg.tribe;
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
        self.epochs.retain(|e| e.from_round != entry.from_round);
        self.epochs.push(entry);
        self.epochs.sort_by_key(|e| e.from_round);
    }

    // --- post-restart resumption (the first networked step) ----------------

    /// Re-enters the network after [`SailfishNode::new`] rebuilt the state:
    /// emits the recovery span, re-broadcasts the persisted proposal (or
    /// proposes fresh if none was durable), re-arms the round timer and
    /// requests a peer state transfer for anything missed while down.
    pub(crate) fn post_restart(
        &mut self,
        started: std::time::Instant,
        ctx: &mut Ctx<ConsensusMsg>,
    ) {
        let now = ctx.now();
        self.cfg.telemetry.event(
            now,
            self.cfg.me,
            Event::RecoveryCompleted {
                round: self.current_round,
                wal_records: self.recovered_records,
                commit_seq: self.next_commit_seq(),
                duration_us: started.elapsed().as_micros() as u64,
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
                let mut fx = Effects::at(now);
                self.rbc
                    .broadcast(round, MergedPayload::new(p.vertex, p.block), &mut fx);
                self.flush(fx, ctx);
            }
            _ => {
                // Nothing durable for the current round: either a fresh disk
                // or the node stopped proposing. `propose` handles both.
                let round = self.current_round;
                let mut fx = Effects::at(now);
                self.propose(round, &mut fx, now);
                self.flush(fx, ctx);
            }
        }
        ctx.set_timer(self.cfg.timeout, self.current_round.0);
        // Ask peers for everything we might have missed while down. Both
        // frontiers travel with the request: rounds for the DAG window,
        // sequences for the committed-order suffix.
        let from = Round(self.current_round.0.saturating_sub(self.cfg.catchup_rounds));
        let next_seq = self.next_commit_seq();
        self.catchup = Some(CatchupState {
            from_round: from.0,
            vertices: HashMap::new(),
            commits: HashMap::new(),
            progress: HashMap::new(),
        });
        let me = self.cfg.me;
        let peers: Vec<PartyId> = self.cfg.tribe.parties().filter(|p| *p != me).collect();
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
    /// the committed-order suffix from `next_seq`, chunked. A peer is answered
    /// only for a `from_round` above the last one it was served and not
    /// above this node's own round: a crashing-and-rejoining peer asks again
    /// with a later round, while a flooding peer gets at most one window per
    /// round of progress, whatever rounds it names, and the bookkeeping is
    /// one entry per peer.
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
        let committed: Vec<CommittedRec> = self
            .committed_log
            .iter()
            .filter(|c| c.sequence >= next_seq)
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
        let chunk_count = (vertices.len().div_ceil(STATE_CHUNK_VERTICES))
            .max(committed.len().div_ceil(STATE_CHUNK_COMMITS))
            .max(1);
        ctx.send(
            from,
            ConsensusMsg::StateSnapshot {
                from_round,
                current_round: self.current_round,
                last_committed: self.last_committed.unwrap_or(Round::GENESIS),
                chunks: chunk_count as u32,
            },
        );
        for i in 0..chunk_count {
            let vs = vertices
                .iter()
                .skip(i * STATE_CHUNK_VERTICES)
                .take(STATE_CHUNK_VERTICES)
                .cloned()
                .collect();
            let cs = committed
                .iter()
                .skip(i * STATE_CHUNK_COMMITS)
                .take(STATE_CHUNK_COMMITS)
                .cloned()
                .collect();
            let chunk = ConsensusMsg::StateChunk {
                from_round,
                seq: i as u32,
                last: i + 1 == chunk_count,
                vertices: vs,
                committed: cs,
            };
            self.cfg.telemetry.add(counters::STATE_TRANSFER_CHUNKS, 1);
            self.cfg
                .telemetry
                .add(counters::STATE_TRANSFER_BYTES, chunk.wire_bytes() as u64);
            ctx.send(from, chunk);
        }
    }

    // --- state transfer: client side ---------------------------------------

    /// Accumulates one responder's chunk; once `f+1` responders finished,
    /// applies everything that `f+1` of them agree on.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn on_state_chunk(
        &mut self,
        from: PartyId,
        from_round: Round,
        seq: u32,
        last: bool,
        vertices: &[Arc<Vertex>],
        committed: &[CommittedRec],
        ctx: &mut Ctx<ConsensusMsg>,
    ) {
        let tribe = self.cfg.tribe;
        let Some(cat) = self.catchup.as_mut() else {
            return; // No transfer in flight (or it already completed).
        };
        if from_round.0 != cat.from_round || from == self.cfg.me {
            return;
        }
        ctx.charge(self.cfg.cost.db_reads(vertices.len() + committed.len()));
        for v in vertices {
            // Structural validation is local; certificate checks are
            // unnecessary — `f+1` matching copies include an honest node
            // that verified the vertex before accepting it.
            if v.validate_shape(tribe).is_err() {
                continue;
            }
            let id = v.id();
            cat.vertices
                .entry(id)
                .or_insert_with(|| (Arc::clone(v), HashSet::new()))
                .1
                .insert(from);
        }
        for c in committed {
            cat.commits.entry(c.clone()).or_default().insert(from);
        }
        let (got, total) = cat.progress.entry(from).or_default();
        got.insert(seq);
        if last {
            *total = Some(seq + 1);
        }
        if cat.complete() >= self.cfg.tribe.small_quorum() {
            self.finish_catchup(ctx);
        }
    }

    /// Applies the `f+1`-agreed transfer results in one deterministic pass.
    pub(crate) fn finish_catchup(&mut self, ctx: &mut Ctx<ConsensusMsg>) {
        let Some(cat) = self.catchup.take() else {
            return;
        };
        let now = ctx.now();
        let f1 = self.cfg.tribe.small_quorum();

        // 1. The committed-order suffix: adopt agreed entries in sequence
        //    order, stopping at the first gap — the local total order must
        //    extend contiguously or not at all.
        let mut entries: Vec<CommittedRec> = cat
            .commits
            .into_iter()
            .filter(|(_, peers)| peers.len() >= f1)
            .map(|(c, _)| c)
            .collect();
        entries.sort_by_key(|c| c.sequence);
        for entry in entries {
            if entry.sequence < self.next_commit_seq() {
                continue; // Already had it.
            }
            if entry.sequence > self.next_commit_seq() {
                break; // Gap: responders could not agree on the middle.
            }
            let entry = CommittedVertex {
                sequence: entry.sequence,
                vertex: entry.vertex,
                block_digest: entry.block_digest,
                block_bytes: entry.block_bytes,
                block_tx_count: entry.block_tx_count,
                committed_at: now,
                leader_round: entry.leader_round,
            };
            self.fold_commit(entry, CommitOrigin::Adopted);
        }

        // 2. The live DAG window, parents first. When the window floor is
        //    above our horizon *and* the adopted order covers everything
        //    below it, fast-forward the horizon: vertices referencing
        //    pre-window parents then insert as live instead of pending
        //    forever (their history is committed, not missing).
        let mut vs: Vec<(Arc<Vertex>, Digest)> = cat
            .vertices
            .into_iter()
            .filter(|(_, (_, peers))| peers.len() >= f1)
            .map(|(id, (v, _))| (v, id))
            .collect();
        vs.sort_by_key(|(v, _)| (v.round, v.source));
        if let Some(floor) = vs.first().map(|(v, _)| v.round) {
            if floor > self.dag.horizon() && self.last_committed.is_some_and(|lc| lc >= floor) {
                let released = self.dag.prune_below(floor);
                self.rbc.prune_below(floor);
                self.on_live(released, now, now);
            }
        }
        // Inserted without voting, telemetry or weak-edge tracking (as on
        // WAL replay); step 5 retries the commits this skips.
        for (v, id) in vs {
            if self.dag.is_known(&v.reference()) {
                continue;
            }
            if self.storage.is_some() {
                self.log_wal(&WalRecord::Accepted {
                    vertex: (*v).clone(),
                });
            }
            self.dag.insert_shared(v, Some(id));
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

    /// Installs a checkpoint (and rotates the WAL) once the commit frontier
    /// moved `checkpoint_interval` leader rounds past the previous one.
    pub(crate) fn maybe_checkpoint(&mut self) {
        if self.storage.is_none() {
            return;
        }
        let Some(lc) = self.last_committed else {
            return;
        };
        if lc.0 < self.last_checkpoint_round + self.cfg.checkpoint_interval {
            return;
        }
        self.last_checkpoint_round = lc.0;
        let horizon = self.dag.horizon();
        // Snapshot the live window sorted round-ascending so restore can
        // insert parents before children.
        let vertices: Vec<Vertex> = self
            .dag
            .live_vertices_from(horizon)
            .into_iter()
            .map(|v| Vertex::clone(v))
            .collect();
        let ordered: Vec<VertexRef> = vertices
            .iter()
            .map(|v| v.reference())
            .filter(|r| self.dag.is_ordered(r))
            .collect();
        let mut voted: Vec<Round> = self
            .voted
            .iter()
            .copied()
            .filter(|r| *r >= horizon)
            .collect();
        voted.sort();
        let mut no_voted: Vec<Round> = self
            .no_voted
            .iter()
            .copied()
            .filter(|r| *r >= horizon)
            .collect();
        no_voted.sort();
        let cp = Checkpoint {
            current_round: self.current_round,
            last_committed: self.last_committed,
            commit_seq: self.next_commit_seq(),
            next_tx_seq: self.next_seq,
            stopped_proposing: self.stopped_proposing,
            voted,
            no_voted,
            last_proposal: self.last_proposal.clone(),
            vertices,
            ordered,
            committed_round_by: self.committed_round_by.clone(),
            epochs: self.epochs.clone(),
        };
        self.storage
            .as_mut()
            .expect("checked above")
            .install_checkpoint(&cp)
            .expect("checkpoint install must succeed");
    }

    // --- epoch-based clan rotation ------------------------------------------

    /// Decides every epoch whose boundary the given committed round has
    /// reached. Called per ordered vertex *before* that vertex folds into
    /// the liveness table: the decision point is a fixed position of the
    /// agreed sequence, so all honest parties decide on identical state.
    ///
    /// Epoch `e` (1-based) governs rounds from `e * epoch_length`; its
    /// decision fires once the order reaches a vertex of round
    /// `e * epoch_length − epoch_length / 2` — the half-epoch slack absorbs
    /// commit lag so the new topology is installed before it takes effect.
    pub(crate) fn decide_epochs_up_to(&mut self, committed_round: Round, now: Micros) {
        let Some(len) = self.cfg.epoch_length else {
            return;
        };
        loop {
            let epoch = self.next_epoch;
            let boundary = epoch * len - len / 2;
            if committed_round.0 < boundary {
                return;
            }
            self.next_epoch = epoch + 1;
            self.decide_epoch(epoch, boundary, Round(epoch * len), now);
        }
    }

    fn decide_epoch(&mut self, epoch: u64, boundary: u64, from_round: Round, now: Micros) {
        let tribe = self.cfg.tribe;
        let latest = Arc::clone(self.rbc.config().topology_at(Round(u64::MAX)));
        // Rotation applies to the single-clan variant with outsiders to
        // promote; other layouts re-record their standing membership.
        let rotation = if latest.clan_count() == 1 && latest.clan(0).members.len() < tribe.n() {
            let members = latest.clan(0).members.clone();
            let k = self.cfg.rotation_miss_k;
            let table = &self.committed_round_by;
            let is_dead = |p: PartyId| {
                let newest = table[p.idx()];
                newest == 0 || newest - 1 + k < boundary
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
        // Log the decision even when membership is unchanged: replay counts
        // decided epochs from these records, so every boundary leaves one.
        if self.storage.is_some() {
            self.log_wal(&WalRecord::EpochDecided {
                epoch,
                from_round,
                clans: clans.clone(),
            });
        }
        if let Some(rot) = rotation {
            let replaced = rot.added.len() as u64;
            self.rbc.install_epoch(
                from_round,
                Arc::new(ClanTopology::single_clan(tribe, rot.members)),
            );
            self.cfg
                .telemetry
                .add(counters::ELECTION_EPOCH_ROTATIONS, 1);
            self.cfg.telemetry.event(
                now,
                self.cfg.me,
                Event::EpochRotated {
                    epoch,
                    from_round,
                    replaced,
                },
            );
        }
        self.epochs.push(EpochEntry {
            epoch,
            from_round,
            clans,
        });
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
