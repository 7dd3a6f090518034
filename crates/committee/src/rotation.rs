//! Epoch-boundary clan rotation.
//!
//! When single-clan Sailfish detects that clan members have stopped
//! committing vertices (crashed, partitioned, or withholding), keeping them
//! in the clan costs throughput: their proposer slots go idle and the
//! `f_c + 1` echo threshold leans on fewer live members. At each epoch
//! boundary every party evaluates the same liveness rule over the agreed
//! total-order prefix and, if members are dead, replaces them with
//! candidates drawn deterministically from the alive non-members — no extra
//! communication, no stalling, because the inputs (the committed prefix,
//! the shared seed, the epoch number) are already identical everywhere.
//!
//! Only the single-clan configuration rotates: a multi-clan partition has
//! no spare parties outside every clan (and swapping members between clans
//! would void the random draw §6.2's failure bound is computed for; see
//! DESIGN.md), and the whole-tribe configuration has no outsiders at all.

use clanbft_crypto::ClanRng;
use clanbft_types::PartyId;

/// Outcome of one epoch-boundary rotation decision.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Rotation {
    /// The new clan member list, sorted by party id.
    pub members: Vec<PartyId>,
    /// The members that were voted dead and replaced.
    pub removed: Vec<PartyId>,
    /// The candidates seated in their place.
    pub added: Vec<PartyId>,
}

/// Decides the epoch-`epoch` rotation for a single clan.
///
/// `members` is the current clan (any order); `is_dead(p)` is the shared
/// liveness verdict — it MUST be computed from agreed state (the committed
/// prefix) so every honest party evaluates it identically. Dead members are
/// replaced by alive non-members chosen by a seeded partial Fisher–Yates
/// over the candidate list; `seed ^ epoch` keys the draw so distinct epochs
/// get independent (but reproducible) choices.
///
/// Returns `None` when nothing changes: no member is dead, or no alive
/// candidate exists to seat. If candidates run short, only as many members
/// as can be replaced are — the clan never shrinks.
pub fn rotate_single_clan(
    n: usize,
    members: &[PartyId],
    is_dead: impl Fn(PartyId) -> bool,
    seed: u64,
    epoch: u64,
) -> Option<Rotation> {
    let dead: Vec<PartyId> = members.iter().copied().filter(|&p| is_dead(p)).collect();
    if dead.is_empty() {
        return None;
    }
    let mut candidates: Vec<PartyId> = (0..n as u32)
        .map(PartyId)
        .filter(|p| !members.contains(p) && !is_dead(*p))
        .collect();
    if candidates.is_empty() {
        return None;
    }
    let take = dead.len().min(candidates.len());
    let mut rng = ClanRng::seed_from_u64(seed ^ epoch);
    rng.partial_shuffle(&mut candidates, take);
    let added: Vec<PartyId> = candidates[..take].to_vec();
    // Deterministic victim order: lowest ids first when not all dead
    // members can be replaced (dead is already ascending — members scan).
    let removed: Vec<PartyId> = dead[..take].to_vec();
    let mut new_members: Vec<PartyId> = members
        .iter()
        .copied()
        .filter(|p| !removed.contains(p))
        .chain(added.iter().copied())
        .collect();
    new_members.sort_unstable();
    Some(Rotation {
        members: new_members,
        removed,
        added,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(v: &[u32]) -> Vec<PartyId> {
        v.iter().copied().map(PartyId).collect()
    }

    #[test]
    fn no_dead_no_rotation() {
        let r = rotate_single_clan(10, &ids(&[0, 1, 2, 3]), |_| false, 7, 1);
        assert!(r.is_none());
    }

    #[test]
    fn dead_member_is_replaced_from_outside() {
        let members = ids(&[0, 1, 2, 3]);
        let r = rotate_single_clan(10, &members, |p| p == PartyId(2), 7, 1).unwrap();
        assert_eq!(r.removed, ids(&[2]));
        assert_eq!(r.added.len(), 1);
        assert!(!members.contains(&r.added[0]), "replacement from outside");
        assert_eq!(r.members.len(), 4);
        assert!(!r.members.contains(&PartyId(2)));
        assert!(r.members.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn rotation_is_seed_and_epoch_deterministic() {
        let members = ids(&[0, 1, 2, 3]);
        let dead = |p: PartyId| p == PartyId(1);
        let a = rotate_single_clan(12, &members, dead, 42, 3).unwrap();
        let b = rotate_single_clan(12, &members, dead, 42, 3).unwrap();
        assert_eq!(a, b);
        // A different epoch re-keys the draw (with 8 candidates a collision
        // for this pinned seed would be caught here once and repinned).
        let c = rotate_single_clan(12, &members, dead, 42, 4).unwrap();
        assert_eq!(c.removed, a.removed);
    }

    #[test]
    fn dead_candidates_are_not_seated() {
        // Everyone outside the clan is dead except party 9.
        let members = ids(&[0, 1, 2, 3]);
        let dead = |p: PartyId| p == PartyId(0) || (p.0 >= 4 && p.0 != 9);
        let r = rotate_single_clan(10, &members, dead, 1, 1).unwrap();
        assert_eq!(r.added, ids(&[9]));
        assert_eq!(r.removed, ids(&[0]));
    }

    #[test]
    fn clan_never_shrinks_when_candidates_run_short() {
        // Two dead members, one alive candidate: exactly one replacement.
        let members = ids(&[0, 1, 2, 3]);
        let dead = |p: PartyId| p == PartyId(0) || p == PartyId(1) || p == PartyId(5);
        let r = rotate_single_clan(6, &members, dead, 1, 1).unwrap();
        assert_eq!(r.members.len(), 4);
        assert_eq!(r.added, ids(&[4]));
        assert_eq!(r.removed.len(), 1);
    }

    #[test]
    fn no_candidates_no_rotation() {
        // Whole tribe is in the clan: nobody to seat.
        let members = ids(&[0, 1, 2, 3]);
        let r = rotate_single_clan(4, &members, |p| p == PartyId(0), 1, 1);
        assert!(r.is_none());
    }
}
