//! Vertex storage with causal-completeness buffering and path queries.
//!
//! A vertex is addressed by index: its round finds a row (through a small
//! ordered map — a node retains a few dozen rounds, and a far-future round
//! number cannot size anything), its source indexes one of the row's `n`
//! slots. Sets of vertices (ordered, visited by a walk) are one
//! [`PartySet`] per round. Nothing on the insert, path or ordering path
//! hashes a reference, and every listing comes out in `(round, source)`
//! order by construction.

use clanbft_crypto::Digest;
use clanbft_types::{PartyId, PartySet, Round, TribeParams, Vertex, VertexRef};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Result of offering a vertex to the store.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum InsertOutcome {
    /// The vertex (and possibly previously-pending descendants) became live.
    /// Contains every vertex that became live, in insertion order.
    Live(Vec<VertexRef>),
    /// Parents are missing; the vertex is buffered until they arrive.
    Pending,
    /// A vertex for this `(round, source)` already exists.
    Duplicate,
}

/// One stored vertex: shared with the layers that handed it over, plus its
/// content id when that layer had already computed it (each node hashes a
/// vertex once; [`Dag::id_of`] hashes on demand otherwise).
struct Stored {
    vertex: Arc<Vertex>,
    id: Option<Digest>,
}

/// One round of the DAG.
struct Row {
    /// The live vertex of each party, by party index.
    slots: Vec<Option<Stored>>,
    /// Occupied slots.
    live: usize,
    /// Sources whose vertex was emitted into the total order (a mark can
    /// precede the vertex: adopted commits).
    ordered: PartySet,
}

impl Row {
    fn new(n: usize) -> Row {
        Row {
            slots: std::iter::repeat_with(|| None).take(n).collect(),
            live: 0,
            ordered: PartySet::EMPTY,
        }
    }

    fn vertices(&self) -> impl Iterator<Item = &Arc<Vertex>> {
        self.slots.iter().flatten().map(|s| &s.vertex)
    }
}

/// A set of vertex references as one [`PartySet`] per round, rounds in
/// first-touch order. A walk down the DAG touches rounds in descending
/// order, so the round of the edge at hand is the last entry or the one
/// before it.
#[derive(Default)]
struct RefSet(Vec<(Round, PartySet)>);

impl RefSet {
    /// Adds `r`; returns `true` if it was not yet a member.
    fn insert(&mut self, r: &VertexRef) -> bool {
        let at = match self.0.iter().rposition(|(round, _)| *round == r.round) {
            Some(at) => at,
            None => {
                self.0.push((r.round, PartySet::EMPTY));
                self.0.len() - 1
            }
        };
        self.0[at].1.insert(r.source)
    }

    fn contains(&self, r: &VertexRef) -> bool {
        self.0
            .iter()
            .any(|(round, sources)| *round == r.round && sources.contains(r.source))
    }
}

/// The DAG of delivered vertices at one party.
///
/// Vertices offered to it have passed [`Vertex::validate_shape`] for the
/// same tribe: a source is a slot index.
pub struct Dag {
    tribe: TribeParams,
    /// Rounds holding a live vertex or an ordered mark.
    rounds: BTreeMap<Round, Row>,
    /// Vertices waiting for missing ancestors.
    pending: BTreeMap<VertexRef, Stored>,
    /// Reverse dependency index: missing ref → pending vertices waiting on it.
    waiting_on: BTreeMap<VertexRef, Vec<VertexRef>>,
    /// Rounds below this have been garbage-collected; everything there is
    /// implicitly live and ordered.
    horizon: Round,
}

impl Dag {
    /// An empty DAG for a tribe.
    pub fn new(tribe: TribeParams) -> Dag {
        Dag {
            tribe,
            rounds: BTreeMap::new(),
            pending: BTreeMap::new(),
            waiting_on: BTreeMap::new(),
            horizon: Round::GENESIS,
        }
    }

    /// Tribe parameters.
    pub fn tribe(&self) -> TribeParams {
        self.tribe
    }

    /// The garbage-collection horizon (lowest retained round).
    pub fn horizon(&self) -> Round {
        self.horizon
    }

    /// Number of live vertices in `round`.
    pub fn round_count(&self, round: Round) -> usize {
        self.rounds.get(&round).map_or(0, |row| row.live)
    }

    /// The live vertex for `(round, source)`, if any.
    pub fn get(&self, r: &VertexRef) -> Option<&Vertex> {
        self.stored(r).map(|s| &*s.vertex)
    }

    fn stored(&self, r: &VertexRef) -> Option<&Stored> {
        stored_in(self.rounds.get(&r.round), r)
    }

    /// The content id of the live vertex `r`: the one it was inserted with,
    /// else hashed now.
    pub fn id_of(&self, r: &VertexRef) -> Option<Digest> {
        self.stored(r)
            .map(|s| s.id.unwrap_or_else(|| s.vertex.id()))
    }

    /// True iff a live vertex exists for `r` (or `r` is below the horizon,
    /// where everything was pruned as already-processed).
    pub fn contains(&self, r: &VertexRef) -> bool {
        r.round < self.horizon || self.get(r).is_some()
    }

    /// True iff offering a vertex for `r` would be a duplicate: one is live,
    /// buffered as pending, or `r` is below the horizon.
    pub fn is_known(&self, r: &VertexRef) -> bool {
        self.contains(r) || self.pending.contains_key(r)
    }

    /// Live vertices of `round`, in source order.
    pub fn round_vertices(&self, round: Round) -> Vec<&Vertex> {
        self.rounds
            .get(&round)
            .map(|row| row.vertices().map(|v| &**v).collect())
            .unwrap_or_default()
    }

    /// Number of vertices currently buffered as pending.
    pub fn pending_count(&self) -> usize {
        self.pending.len()
    }

    /// Number of rounds currently holding a live vertex (the round-window
    /// occupancy the node samples into a gauge: grows when commits stall GC).
    pub fn round_span(&self) -> usize {
        self.rounds.values().filter(|row| row.live > 0).count()
    }

    /// Total live vertices retained across all rounds.
    pub fn live_count(&self) -> usize {
        self.rounds.values().map(|row| row.live).sum()
    }

    /// All live vertices from `from` on, in `(round, source)` order — the
    /// window a state-transfer response ships.
    pub fn live_vertices_from(&self, from: Round) -> Vec<&Arc<Vertex>> {
        self.rounds
            .range(from..)
            .flat_map(|(_, row)| row.vertices())
            .collect()
    }

    /// Every vertex from `from` on, live or pending, in `(round, source)`
    /// order — what a checkpoint ships.
    pub fn vertices_from(&self, from: Round) -> Vec<&Arc<Vertex>> {
        let mut all = self.live_vertices_from(from);
        let pending = self.pending.values().map(|s| &s.vertex);
        all.extend(pending.filter(|v| v.round >= from));
        all.sort_by_key(|v| v.reference());
        all
    }

    /// Every ordered mark from `from` on, in `(round, source)` order,
    /// whether or not its vertex is here.
    pub fn ordered_from(&self, from: Round) -> Vec<VertexRef> {
        self.rounds
            .range(from..)
            .flat_map(|(&round, row)| {
                row.ordered
                    .iter()
                    .map(move |source| VertexRef { round, source })
            })
            .collect()
    }

    /// Marks `r` as already ordered without walking its history — for a
    /// commit adopted from a state transfer, whose vertex may arrive later
    /// or never, and for the marks a checkpoint restores. Below the horizon,
    /// or for a source outside the tribe, there is nothing to mark.
    pub fn mark_ordered(&mut self, r: VertexRef) {
        if r.round >= self.horizon && r.source.idx() < self.tribe.n() {
            self.row_mut(r.round).ordered.insert(r.source);
        }
    }

    fn row_mut(&mut self, round: Round) -> &mut Row {
        let n = self.tribe.n();
        self.rounds.entry(round).or_insert_with(|| Row::new(n))
    }

    /// Offers a delivered vertex. Returns which vertices became live (the
    /// offered one plus any pending descendants it unblocked), or whether it
    /// was buffered / a duplicate.
    pub fn insert(&mut self, vertex: Vertex) -> InsertOutcome {
        self.insert_shared(Arc::new(vertex), None)
    }

    /// [`Dag::insert`] for a vertex the caller shares, with its content id
    /// if the caller already hashed it.
    ///
    /// # Panics
    ///
    /// Panics when the vertex becomes live and its source is not a party of
    /// the tribe (excluded by [`Vertex::validate_shape`]).
    pub fn insert_shared(&mut self, vertex: Arc<Vertex>, id: Option<Digest>) -> InsertOutcome {
        let _prof = clanbft_profiler::scope("dag.insert");
        let vref = vertex.reference();
        if self.is_known(&vref) {
            return InsertOutcome::Duplicate;
        }
        let missing = self.first_missing_parent(&vertex);
        let stored = Stored { vertex, id };
        if let Some(missing) = missing {
            self.waiting_on.entry(missing).or_default().push(vref);
            self.pending.insert(vref, stored);
            return InsertOutcome::Pending;
        }
        let mut live = Vec::new();
        self.make_live(vref, stored, &mut live);
        self.wake_waiters(&[], &mut live);
        InsertOutcome::Live(live)
    }

    /// Cascade: the `freed` refs (implicitly live now, below the horizon) and
    /// the refs already in `live` just became present, which may unblock
    /// pending vertices waiting on them, and those in turn their own
    /// waiters. Appends everything made live to `live`, in the order it
    /// became live; `live` doubles as the work queue.
    fn wake_waiters(&mut self, freed: &[VertexRef], live: &mut Vec<VertexRef>) {
        let mut next = 0;
        while let Some(just_present) = freed
            .get(next)
            .or_else(|| live.get(next - freed.len()))
            .copied()
        {
            next += 1;
            let Some(waiters) = self.waiting_on.remove(&just_present) else {
                continue;
            };
            for w in waiters {
                let Some(stored) = self.pending.get(&w) else {
                    continue;
                };
                if let Some(missing) = self.first_missing_parent(&stored.vertex) {
                    self.waiting_on.entry(missing).or_default().push(w);
                    continue;
                }
                let stored = self.pending.remove(&w).expect("checked above");
                self.make_live(w, stored, live);
            }
        }
    }

    fn make_live(&mut self, vref: VertexRef, stored: Stored, live: &mut Vec<VertexRef>) {
        let row = self.row_mut(vref.round);
        row.slots[vref.source.idx()] = Some(stored);
        row.live += 1;
        live.push(vref);
    }

    fn first_missing_parent(&self, v: &Vertex) -> Option<VertexRef> {
        v.strong_edges
            .iter()
            .chain(v.weak_edges.iter())
            .find(|e| e.round >= self.horizon && self.stored(e).is_none())
            .copied()
    }

    /// True iff a strong path (following only strong edges) leads from
    /// `from` down to `to`.
    ///
    /// Returns `false` when either endpoint is not live or `to` is not in
    /// `from`'s past.
    pub fn exists_strong_path(&self, from: &VertexRef, to: &VertexRef) -> bool {
        if from == to {
            return self.contains(from);
        }
        if to.round >= from.round || self.get(from).is_none() {
            return false;
        }
        if to.round < self.horizon {
            // Below the horizon everything reachable was already processed;
            // treat as unreachable rather than guessing.
            return false;
        }
        let mut stack = vec![*from];
        let mut seen = RefSet::default();
        while let Some(cur) = stack.pop() {
            let Some(stored) = self.stored(&cur) else {
                continue;
            };
            for e in &stored.vertex.strong_edges {
                if e == to {
                    return true;
                }
                if e.round > to.round && seen.insert(e) {
                    stack.push(*e);
                }
            }
        }
        false
    }

    /// The downward walk behind ordering and weak-edge choice: every live,
    /// not-yet-ordered vertex of round `floor` or later that `roots` reach
    /// over strong and weak edges, the roots themselves included. An
    /// ordered vertex ends its branch — its whole history is ordered too.
    fn unordered_history(&self, roots: &[VertexRef], floor: Round) -> RefSet {
        let floor = floor.max(self.horizon);
        let mut history = RefSet::default();
        let mut stack = Vec::new();
        let mut visit = |e: &VertexRef, stack: &mut Vec<VertexRef>| {
            let fresh = e.round >= floor
                && self.rounds.get(&e.round).is_some_and(|row| {
                    !row.ordered.contains(e.source) && stored_in(Some(row), e).is_some()
                })
                && history.insert(e);
            if fresh {
                stack.push(*e);
            }
        };
        for root in roots {
            visit(root, &mut stack);
        }
        while let Some(cur) = stack.pop() {
            let v = &self
                .stored(&cur)
                .expect("only live vertices are visited")
                .vertex;
            for e in v.strong_edges.iter().chain(v.weak_edges.iter()) {
                visit(e, &mut stack);
            }
        }
        history
    }

    /// Collects the not-yet-ordered causal history of `root` (strong and
    /// weak edges), marking everything returned as ordered. The result is
    /// deterministic: ascending `(round, source)`, root last.
    ///
    /// Returns an empty vector if `root` is not live.
    pub fn take_causal_history(&mut self, root: &VertexRef) -> Vec<VertexRef> {
        let mut history = self.unordered_history(&[*root], self.horizon);
        history.0.sort_unstable_by_key(|(round, _)| *round);
        let mut collected = Vec::new();
        for (round, sources) in &history.0 {
            collected.extend(sources.iter().map(|source| VertexRef {
                round: *round,
                source,
            }));
            self.row_mut(*round).ordered.union_with(sources);
        }
        collected
    }

    /// Chooses the weak edges of a proposal whose strong edges are `strong`
    /// (DAG-Rider's rule, which Sailfish inherits): an older vertex is
    /// cited only if the proposal would otherwise have no path to it.
    ///
    /// `candidates` are vertices that went live too late for the strong
    /// edges of the round after theirs. Of those older than the strong
    /// edges' round, one that is ordered, no longer retained, or already in
    /// the causal history of `strong` needs no citation from anybody who
    /// builds on this proposal, and leaves the set for good; the oldest
    /// `cap` of the rest are returned (and leave it, being cited now); the
    /// remainder waits for the next proposal.
    pub fn weak_edges(
        &self,
        strong: &[VertexRef],
        candidates: &mut BTreeSet<VertexRef>,
        cap: usize,
    ) -> Vec<VertexRef> {
        let prev = strong.first().map_or(Round::GENESIS, |e| e.round);
        let Some(oldest) = candidates.first().filter(|c| c.round < prev) else {
            return Vec::new();
        };
        let covered = self.unordered_history(strong, oldest.round);
        let mut chosen = Vec::new();
        candidates.retain(|c| {
            if c.round >= prev {
                return true;
            }
            let orphan = self.get(c).is_some() && !self.is_ordered(c) && !covered.contains(c);
            if orphan && chosen.len() < cap {
                chosen.push(*c);
                return false;
            }
            orphan
        });
        chosen
    }

    /// True iff `r` has been emitted into the total order.
    pub fn is_ordered(&self, r: &VertexRef) -> bool {
        self.rounds
            .get(&r.round)
            .is_some_and(|row| row.ordered.contains(r.source))
    }

    /// Garbage-collects all rounds strictly below `round`.
    ///
    /// Callers must only prune below their commit frontier: everything
    /// discarded is assumed ordered (or abandoned by every honest party).
    ///
    /// Refs below the new horizon count as present from now on, so pending
    /// vertices that were waiting on one of them may have become live: the
    /// returned list names them (and whatever they unblocked in turn), for
    /// the caller to treat like the outcome of an insert.
    pub fn prune_below(&mut self, round: Round) -> Vec<VertexRef> {
        let mut live = Vec::new();
        if round <= self.horizon {
            return live;
        }
        self.horizon = round;
        self.rounds = self.rounds.split_off(&round);
        let floor = VertexRef {
            round,
            source: PartyId(0),
        };
        self.pending = self.pending.split_off(&floor);
        self.waiting_on.retain(|_, ws| {
            ws.retain(|w| w.round >= round);
            !ws.is_empty()
        });
        let freed: Vec<VertexRef> = self.waiting_on.range(..floor).map(|(r, _)| *r).collect();
        self.wake_waiters(&freed, &mut live);
        live
    }
}

/// The stored vertex `r` names, given the row of its round.
fn stored_in<'a>(row: Option<&'a Row>, r: &VertexRef) -> Option<&'a Stored> {
    row?.slots.get(r.source.idx())?.as_ref()
}

#[cfg(test)]
mod tests {
    use super::*;
    use clanbft_crypto::Digest;

    fn vertex(round: u64, source: u32, strong: &[(u64, u32)], weak: &[(u64, u32)]) -> Vertex {
        Vertex {
            round: Round(round),
            source: PartyId(source),
            block_digest: Digest::of(&[round as u8, source as u8]),
            block_bytes: 0,
            block_tx_count: 0,
            strong_edges: strong
                .iter()
                .map(|&(r, s)| VertexRef {
                    round: Round(r),
                    source: PartyId(s),
                })
                .collect(),
            weak_edges: weak
                .iter()
                .map(|&(r, s)| VertexRef {
                    round: Round(r),
                    source: PartyId(s),
                })
                .collect(),
            nvc: None,
            tc: None,
        }
    }

    fn vref(round: u64, source: u32) -> VertexRef {
        VertexRef {
            round: Round(round),
            source: PartyId(source),
        }
    }

    /// A fully-connected 4-party DAG over `rounds` rounds.
    fn full_dag(rounds: u64) -> Dag {
        let mut dag = Dag::new(TribeParams::new(4));
        for s in 0..4 {
            assert!(matches!(
                dag.insert(vertex(0, s, &[], &[])),
                InsertOutcome::Live(_)
            ));
        }
        for r in 1..=rounds {
            let parents: Vec<(u64, u32)> = (0..4).map(|s| (r - 1, s)).collect();
            for s in 0..4 {
                let out = dag.insert(vertex(r, s, &parents, &[]));
                assert!(matches!(out, InsertOutcome::Live(_)), "r={r} s={s}");
            }
        }
        dag
    }

    #[test]
    fn basic_insertion_and_counts() {
        let dag = full_dag(3);
        for r in 0..=3 {
            assert_eq!(dag.round_count(Round(r)), 4);
        }
        assert_eq!(dag.round_count(Round(4)), 0);
        assert!(dag.contains(&vref(2, 3)));
        assert!(!dag.contains(&vref(4, 0)));
    }

    #[test]
    fn duplicate_rejected() {
        let mut dag = full_dag(1);
        assert_eq!(
            dag.insert(vertex(1, 0, &[(0, 0)], &[])),
            InsertOutcome::Duplicate
        );
    }

    #[test]
    fn pending_until_parents_arrive() {
        let mut dag = Dag::new(TribeParams::new(4));
        // Round-1 vertex arrives before its round-0 parents.
        let v1 = vertex(1, 0, &[(0, 0), (0, 1), (0, 2)], &[]);
        assert_eq!(dag.insert(v1), InsertOutcome::Pending);
        assert_eq!(dag.pending_count(), 1);
        assert!(matches!(
            dag.insert(vertex(0, 0, &[], &[])),
            InsertOutcome::Live(_)
        ));
        assert!(matches!(
            dag.insert(vertex(0, 1, &[], &[])),
            InsertOutcome::Live(_)
        ));
        // The final parent unblocks the pending vertex in the same call.
        match dag.insert(vertex(0, 2, &[], &[])) {
            InsertOutcome::Live(live) => {
                assert_eq!(live, vec![vref(0, 2), vref(1, 0)]);
            }
            other => panic!("expected live cascade, got {other:?}"),
        }
        assert_eq!(dag.pending_count(), 0);
    }

    #[test]
    fn deep_pending_cascade() {
        let mut dag = Dag::new(TribeParams::new(4));
        // Insert a chain in reverse order; everything resolves at the end.
        for r in (1..=5).rev() {
            let parents: Vec<(u64, u32)> = (0..3).map(|s| (r - 1, s)).collect();
            for s in 0..3 {
                assert_eq!(
                    dag.insert(vertex(r, s, &parents, &[])),
                    InsertOutcome::Pending
                );
            }
        }
        assert_eq!(dag.pending_count(), 15);
        for s in 0..3 {
            dag.insert(vertex(0, s, &[], &[]));
        }
        assert_eq!(dag.pending_count(), 0);
        for r in 0..=5 {
            assert_eq!(dag.round_count(Round(r)), 3, "round {r}");
        }
    }

    #[test]
    fn strong_path_queries() {
        let mut dag = Dag::new(TribeParams::new(4));
        for s in 0..4 {
            dag.insert(vertex(0, s, &[], &[]));
        }
        // Round 1: vertex (1,0) links only to 0,1,2; vertex (1,1) to 1,2,3.
        dag.insert(vertex(1, 0, &[(0, 0), (0, 1), (0, 2)], &[]));
        dag.insert(vertex(1, 1, &[(0, 1), (0, 2), (0, 3)], &[]));
        // Round 2 vertex linking only to (1,0).
        dag.insert(vertex(2, 0, &[(1, 0)], &[]));
        assert!(dag.exists_strong_path(&vref(2, 0), &vref(1, 0)));
        assert!(dag.exists_strong_path(&vref(2, 0), &vref(0, 2)));
        assert!(
            !dag.exists_strong_path(&vref(2, 0), &vref(0, 3)),
            "0,3 only via (1,1)"
        );
        assert!(
            !dag.exists_strong_path(&vref(1, 0), &vref(2, 0)),
            "no upward paths"
        );
        assert!(
            dag.exists_strong_path(&vref(1, 1), &vref(1, 1)),
            "reflexive"
        );
    }

    #[test]
    fn weak_edges_do_not_carry_strong_paths() {
        let mut dag = Dag::new(TribeParams::new(4));
        for s in 0..4 {
            dag.insert(vertex(0, s, &[], &[]));
        }
        dag.insert(vertex(1, 0, &[(0, 0), (0, 1), (0, 2)], &[]));
        // Round-2 vertex with a weak edge to (0,3).
        dag.insert(vertex(2, 0, &[(1, 0)], &[(0, 3)]));
        assert!(!dag.exists_strong_path(&vref(2, 0), &vref(0, 3)));
        // But the weak edge does pull (0,3) into the causal history.
        let hist = dag.take_causal_history(&vref(2, 0));
        assert!(hist.contains(&vref(0, 3)));
    }

    #[test]
    fn causal_history_is_deterministic_and_disjoint() {
        let mut dag = full_dag(3);
        let h1 = dag.take_causal_history(&vref(2, 1));
        // Root present, sorted ascending, root included.
        assert!(h1.contains(&vref(2, 1)));
        assert!(h1
            .windows(2)
            .all(|w| (w[0].round, w[0].source) < (w[1].round, w[1].source)));
        assert_eq!(h1.len(), 4 + 4 + 1); // rounds 0,1 fully + root
                                         // Second commit takes only the delta.
        let h2 = dag.take_causal_history(&vref(3, 0));
        assert!(
            h2.iter().all(|r| !h1.contains(r)),
            "no vertex ordered twice"
        );
        assert!(h2.contains(&vref(2, 0)));
        assert!(h2.contains(&vref(3, 0)));
        // Already ordered root yields nothing.
        assert!(dag.take_causal_history(&vref(2, 1)).is_empty());
    }

    #[test]
    fn prune_below_drops_state() {
        let mut dag = full_dag(4);
        let _ = dag.take_causal_history(&vref(3, 0));
        dag.prune_below(Round(2));
        assert_eq!(dag.round_count(Round(1)), 0);
        assert_eq!(dag.round_count(Round(2)), 4);
        assert!(dag.contains(&vref(1, 0)), "below horizon counts as present");
        assert_eq!(dag.horizon(), Round(2));
        // New vertices referencing pruned rounds insert fine.
        let out = dag.insert(vertex(5, 0, &[], &[]));
        assert!(matches!(
            out,
            InsertOutcome::Live(_) | InsertOutcome::Pending
        ));
    }

    #[test]
    fn prune_below_releases_waiters_of_pruned_refs() {
        // The child waits on (0,3), which never arrives. Pruning round 0
        // makes that ref implicitly present — a later insert of it would be
        // a Duplicate — so the prune itself has to make the child live, and
        // the grandchild that was waiting on the child with it.
        let mut dag = Dag::new(TribeParams::new(4));
        for s in 0..3 {
            dag.insert(vertex(0, s, &[], &[]));
        }
        let child = vertex(1, 0, &[(0, 0), (0, 1), (0, 3)], &[]);
        assert_eq!(dag.insert(child), InsertOutcome::Pending);
        let grandchild = vertex(2, 0, &[(1, 0)], &[]);
        assert_eq!(dag.insert(grandchild), InsertOutcome::Pending);
        assert_eq!(dag.prune_below(Round(1)), vec![vref(1, 0), vref(2, 0)]);
        assert!(dag.get(&vref(1, 0)).is_some() && dag.get(&vref(2, 0)).is_some());
        assert_eq!(dag.pending_count(), 0);
        assert_eq!(
            dag.insert(vertex(0, 3, &[], &[])),
            InsertOutcome::Duplicate,
            "the pruned ref can never arrive"
        );
    }

    #[test]
    fn history_respects_horizon() {
        let mut dag = full_dag(4);
        dag.prune_below(Round(2));
        let hist = dag.take_causal_history(&vref(3, 0));
        assert!(hist.iter().all(|r| r.round >= Round(2)), "{hist:?}");
    }

    #[test]
    fn ordered_marks_need_a_retained_round_and_a_party() {
        let mut dag = full_dag(4);
        dag.prune_below(Round(2));
        for r in [vref(1, 0), vref(3, 4), vref(3, u32::MAX)] {
            dag.mark_ordered(r);
            assert!(!dag.is_ordered(&r), "{r:?}");
        }
        dag.mark_ordered(vref(9, 3));
        assert!(dag.is_ordered(&vref(9, 3)), "a mark can precede the vertex");
    }

    // --- weak-edge choice on hand-built DAGs --------------------------------
    //
    // Four parties (f = 1) unless stated; "we" are P0. P3 is the party whose
    // vertices reach us late: they are live in the store, and in the
    // candidate set because the proposal that could have strong-edged them
    // had already gone out.

    fn refs(of: &[(u64, u32)]) -> Vec<VertexRef> {
        of.iter().map(|&(r, s)| vref(r, s)).collect()
    }

    fn candidates(of: &[(u64, u32)]) -> BTreeSet<VertexRef> {
        refs(of).into_iter().collect()
    }

    /// Rounds `0..=rounds` in which P0, P1 and P2 cite only each other; P3's
    /// vertices are the caller's to add.
    fn dag_without_p3(rounds: u64) -> Dag {
        let mut dag = Dag::new(TribeParams::new(4));
        for r in 0..=rounds {
            let parents: Vec<(u64, u32)> = (0..3)
                .filter_map(|s| Some((r.checked_sub(1)?, s)))
                .collect();
            for s in 0..3 {
                dag.insert(vertex(r, s, &parents, &[]));
            }
        }
        dag
    }

    /// ```text
    /// round 1   (1,0) (1,1) (1,2)          (1,3)
    ///             |  \  |  /  |            / | \
    /// round 0   (0,0) (0,1) (0,2)   (0,1)(0,2)(0,3)   <- (0,3) late at us
    /// ```
    /// Proposing round 2 over all four round-1 vertices, (1,3)'s strong edge
    /// already leads to (0,3): no weak edge, and (0,3) stops being a
    /// candidate. Over (1,0) (1,1) (1,2) alone nothing leads there: cited.
    #[test]
    fn late_vertex_somebody_strong_edged_is_not_cited() {
        let mut dag = dag_without_p3(1);
        dag.insert(vertex(0, 3, &[], &[]));
        dag.insert(vertex(1, 3, &[(0, 1), (0, 2), (0, 3)], &[]));
        let mut late = candidates(&[(0, 3)]);
        let all_four = refs(&[(1, 0), (1, 1), (1, 2), (1, 3)]);
        assert_eq!(dag.weak_edges(&all_four, &mut late, 1), []);
        assert!(late.is_empty(), "reachable: never a candidate again");

        let mut late = candidates(&[(0, 3)]);
        assert_eq!(
            dag.weak_edges(&all_four[..3], &mut late, 1),
            refs(&[(0, 3)])
        );
        assert!(late.is_empty(), "cited: never a candidate again");
    }

    /// The DAG above, proposing over (1,0) (1,1) (1,2) — but a leader that
    /// had (1,3) in its history was committed meanwhile, so (0,3) is in the
    /// total order already: no weak edge.
    #[test]
    fn ordered_vertex_is_not_cited() {
        let mut dag = dag_without_p3(1);
        dag.insert(vertex(0, 3, &[], &[]));
        dag.insert(vertex(1, 3, &[(0, 1), (0, 2), (0, 3)], &[]));
        assert!(dag.take_causal_history(&vref(1, 3)).contains(&vref(0, 3)));
        let mut late = candidates(&[(0, 3)]);
        let strong = refs(&[(1, 0), (1, 1), (1, 2)]);
        assert_eq!(dag.weak_edges(&strong, &mut late, 1), []);
        assert!(late.is_empty());
    }

    /// A slow proposer's chain: P3's vertices of rounds 1, 2 and 3 each cite
    /// its own previous one, and nobody else cites any of them.
    /// ```text
    /// round 3   (3,0) (3,1) (3,2)   (3,3) -> (2,0) (2,1) (2,3)
    /// round 2   (2,0) (2,1) (2,2)   (2,3) -> (1,0) (1,1) (1,3)
    /// round 1   (1,0) (1,1) (1,2)   (1,3) -> (0,0) (0,1) (0,2)
    /// ```
    /// (1,3) and (2,3) were late, (3,3) made it in time for our round-4
    /// proposal: the strong edge to it — the newest vertex of the chain a
    /// proposal can cite — covers the whole chain, no weak edge. Had (3,3)
    /// been late too, the proposal of round 5 finds three candidates and, at
    /// f = 1, takes the oldest; the next one, built on it, takes (2,3).
    /// (Citing only the newest would do in one edge; measured, it changes
    /// nothing — EXPERIMENTS.md — so there is one order: oldest first.)
    #[test]
    fn slow_proposers_chain_is_covered_through_its_newest_vertex() {
        let mut dag = dag_without_p3(4);
        dag.insert(vertex(1, 3, &[(0, 0), (0, 1), (0, 2)], &[]));
        dag.insert(vertex(2, 3, &[(1, 0), (1, 1), (1, 3)], &[]));
        dag.insert(vertex(3, 3, &[(2, 0), (2, 1), (2, 3)], &[]));
        let mut late = candidates(&[(1, 3), (2, 3)]);
        let round3 = refs(&[(3, 0), (3, 1), (3, 2), (3, 3)]);
        assert_eq!(dag.weak_edges(&round3, &mut late, 1), []);
        assert!(late.is_empty());

        let mut late = candidates(&[(1, 3), (2, 3), (3, 3)]);
        let round4 = refs(&[(4, 0), (4, 1), (4, 2)]);
        assert_eq!(dag.weak_edges(&round4, &mut late, 1), refs(&[(1, 3)]));
        assert_eq!(late, candidates(&[(2, 3), (3, 3)]));
        dag.insert(vertex(5, 0, &[(4, 0), (4, 1), (4, 2)], &[(1, 3)]));
        let round5 = refs(&[(5, 0)]);
        assert_eq!(dag.weak_edges(&round5, &mut late, 1), refs(&[(2, 3)]));
        assert_eq!(late, candidates(&[(3, 3)]));
    }

    /// (0,3) and (1,3) are orphans nobody cites, and the horizon has moved
    /// to round 2 (everything below is ordered or abandoned by every honest
    /// party): both are dropped, whatever the strong edges reach. A
    /// candidate of the strong edges' own round is not this proposal's to
    /// judge: it stays, and with nothing older the walk is skipped.
    #[test]
    fn candidate_below_the_horizon_is_dropped() {
        let mut dag = dag_without_p3(3);
        dag.insert(vertex(0, 3, &[], &[]));
        dag.insert(vertex(1, 3, &[(0, 0), (0, 1), (0, 3)], &[]));
        dag.prune_below(Round(2));
        let mut late = candidates(&[(0, 3), (1, 3), (3, 3)]);
        let strong = refs(&[(3, 0), (3, 1), (3, 2)]);
        assert_eq!(dag.weak_edges(&strong, &mut late, 1), []);
        assert_eq!(late, candidates(&[(3, 3)]));
        assert_eq!(dag.weak_edges(&strong, &mut late, 1), []);
        assert_eq!(late, candidates(&[(3, 3)]));
    }

    /// Seven parties (f = 2, quorum 5); P0..P4 cite only each other, and
    /// three vertices nobody cites are late at us: (0,5), (0,6) and
    /// (1,5) -> (0,0..4).
    /// ```text
    /// round 2   (2,0) .. (2,4)
    /// round 1   (1,0) .. (1,4)   (1,5)
    /// round 0   (0,0) .. (0,4)   (0,5) (0,6)
    /// ```
    /// The round-3 proposal may cite two: the oldest, (0,5) and (0,6).
    /// (1,5) stays a candidate, and the round-4 proposal — over round-3
    /// vertices of which ours carries those weak edges — cites it.
    #[test]
    fn binding_cap_takes_the_oldest_and_keeps_the_rest() {
        let mut dag = Dag::new(TribeParams::new(7));
        let five = |r: u64| -> Vec<(u64, u32)> { (0..5).map(|s| (r, s)).collect() };
        for s in 0..7 {
            dag.insert(vertex(0, s, &[], &[]));
        }
        for r in 1..=2 {
            for s in 0..5 {
                dag.insert(vertex(r, s, &five(r - 1), &[]));
            }
        }
        dag.insert(vertex(1, 5, &five(0), &[]));
        let mut late = candidates(&[(1, 5), (0, 6), (0, 5)]);
        let cited = dag.weak_edges(&refs(&five(2)), &mut late, 2);
        assert_eq!(cited, refs(&[(0, 5), (0, 6)]));
        assert_eq!(late, candidates(&[(1, 5)]));

        dag.insert(vertex(3, 0, &five(2), &[(0, 5), (0, 6)]));
        for s in 1..5 {
            dag.insert(vertex(3, s, &five(2), &[]));
        }
        let cited = dag.weak_edges(&refs(&five(3)), &mut late, 2);
        assert_eq!(cited, refs(&[(1, 5)]));
        assert!(late.is_empty());
    }
}
