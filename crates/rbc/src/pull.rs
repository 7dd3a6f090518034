//! Whom a pull asks: every choice of targets the pull sub-protocol makes,
//! in one pure function, as the threshold core owns every threshold.

use clanbft_types::{PartyId, PartySet};

/// The peers to ask, in order, added to `asked`. `peers` can serve the view,
/// any `quorum` of them include an honest one, and `echoers` were counted
/// echoing the wanted digest; this party is never asked. One rule for the
/// first ask and every retry: `quorum` peers not yet asked, echoers first,
/// then the rest of `peers`; once everyone was asked, `asked` starts over.
pub(crate) fn plan_pull(
    quorum: usize,
    echoers: &PartySet,
    peers: &PartySet,
    me: PartyId,
    asked: &mut PartySet,
) -> Vec<PartyId> {
    let eligible = |p: &PartyId| *p != me && peers.contains(*p);
    let fresh = |p: &PartyId| eligible(p) && !asked.contains(*p);
    let others = peers.iter().filter(|p| !echoers.contains(*p) && fresh(p));
    let unasked = echoers.iter().filter(fresh).chain(others);
    let mut targets: Vec<PartyId> = unasked.take(quorum).collect();
    if targets.is_empty() {
        *asked = PartySet::EMPTY;
        targets = peers.iter().filter(eligible).take(quorum).collect();
    }
    targets.iter().for_each(|p| _ = asked.insert(*p));
    targets
}

#[cfg(test)]
mod tests {
    use super::*;
    use clanbft_testkit::{check_shrink, tk_assert, tk_assert_eq};
    use clanbft_types::TribeParams;
    use std::collections::BTreeSet;

    fn set(ids: &[u32]) -> PartySet {
        ids.iter().map(|&i| PartyId(i)).collect()
    }

    fn ids(targets: &[PartyId]) -> Vec<u32> {
        targets.iter().map(|p| p.0).collect()
    }

    /// A clan of five (`f_c + 1 = 3`) in a tribe of ten (`f + 1 = 4`).
    const CLAN: [u32; 5] = [1, 2, 3, 4, 5];
    const ALL: [u32; 10] = [0, 1, 2, 3, 4, 5, 6, 7, 8, 9];

    /// Plans one pull for clan member 5, starting from `asked`; returns the
    /// targets and what `asked` became.
    fn plan(echoers: &[u32], asked: &[u32]) -> (Vec<u32>, Vec<u32>) {
        let mut asked = set(asked);
        let targets = plan_pull(3, &set(echoers), &set(&CLAN), PartyId(5), &mut asked);
        (ids(&targets), ids(&asked.iter().collect::<Vec<_>>()))
    }

    #[test]
    fn the_planner_makes_todays_choices() {
        // A first ask names f_c + 1 clan echoers (0 is outside the clan, 5 is
        // this party), or f_c + 1 peers if none is counted.
        assert_eq!(plan(&[0, 2, 3, 4, 5], &[]), (vec![2, 3, 4], vec![2, 3, 4]));
        assert_eq!(plan(&[9], &[]).0, [1, 2, 3]);
        assert_eq!(plan(&[], &[]).0, [1, 2, 3]);
        // The meta view's scope is the tribe, and f + 1 of it are asked.
        let mut asked = PartySet::EMPTY;
        let (echoers, tribe) = (set(&[0, 1, 3, 5, 6, 9]), set(&ALL));
        let targets = plan_pull(4, &echoers, &tribe, PartyId(0), &mut asked);
        assert_eq!(ids(&targets), [1, 3, 5, 6]);
        // A retry asks echoers not yet asked first, then anyone ...
        let (targets, asked) = plan(&[3, 4], &[1]);
        assert_eq!((targets, &asked[..]), (vec![3, 4, 2], &[1, 2, 3, 4][..]));
        let (targets, asked) = plan(&[2, 3], &[1, 3]);
        assert_eq!((targets, asked), (vec![2, 4], vec![1, 2, 3, 4]));
        // ... and restarts once everyone was asked.
        let (targets, asked) = plan(&[3, 4], &[1, 2, 3, 4]);
        assert_eq!((targets, asked), (vec![1, 2, 3], vec![1, 2, 3]));
    }

    #[test]
    fn every_first_ask_names_f_c_plus_one_distinct_peers() {
        // Fewer echoers counted than f_c + 1: the rest of the clan fills the
        // ask, echoers first.
        assert_eq!(plan(&[2], &[]), (vec![2, 1, 3], vec![1, 2, 3]));
        assert_eq!(plan(&[3, 4], &[]), (vec![3, 4, 1], vec![1, 3, 4]));
        // A party that certifies through a received certificate, having
        // counted one echo (from 4), asks f_c + 1 distinct clan peers.
        assert_eq!(plan(&[4], &[]), (vec![4, 1, 2], vec![1, 2, 4]));
        // A scope with fewer eligible peers than the quorum: all of them.
        let mut asked = PartySet::EMPTY;
        let targets = plan_pull(3, &set(&[4]), &set(&[4, 5]), PartyId(5), &mut asked);
        assert_eq!(ids(&targets), [4]);
    }

    /// The one rule as the engine's retry wrote it before the planner: the
    /// scope collected into a vector, then a loop over echoers and scope.
    fn naive(
        quorum: usize,
        echoers: &[PartyId],
        peers: &[PartyId],
        me: PartyId,
        asked: &mut BTreeSet<PartyId>,
    ) -> Vec<PartyId> {
        let eligible: Vec<PartyId> = peers.iter().copied().filter(|p| *p != me).collect();
        let mut targets = Vec::new();
        for p in echoers.iter().chain(&eligible) {
            if targets.len() >= quorum {
                break;
            }
            if eligible.contains(p) && !asked.contains(p) && !targets.contains(p) {
                targets.push(*p);
            }
        }
        if targets.is_empty() {
            asked.clear();
            targets = eligible.iter().copied().take(quorum).collect();
        }
        asked.extend(&targets);
        targets
    }

    /// The planner against [`naive`], and what the download step needs of
    /// it. Tribes of 4 to 20; the scope is the tribe (`f + 1`) or a clan of
    /// `2 f_c + 1` with exactly `f_c + 1` honest members, this party
    /// anywhere; echoer and `asked` sets at random, and sometimes a random
    /// `quorum`. One plan from the random `asked` set, then a fresh pull:
    /// the first ask and one retry.
    #[test]
    fn the_planner_matches_a_naive_transcription_and_reaches_an_honest_peer() {
        check_shrink(
            "the_planner_matches_a_naive_transcription_and_reaches_an_honest_peer",
            256,
            |g| (g.u8(), g.u8(), g.u64(), g.u64(), g.u64()),
            |&(sizes, me, echo_bits, asked_bits, picks)| {
                let tribe = TribeParams::new(4 + usize::from(sizes) % 17);
                let n = tribe.n();
                let me = PartyId(u32::from(me) % n as u32);
                let of = |bits: u64| {
                    (0..n as u32)
                        .filter(move |i| bits >> i & 1 == 1)
                        .map(PartyId)
                };
                let (peers, threshold): (BTreeSet<PartyId>, usize) = if picks & 1 == 0 {
                    (tribe.parties().collect(), tribe.small_quorum())
                } else {
                    let f_c = usize::from(sizes / 17) % ((n - 1) / 2 + 1);
                    let at = (picks >> 8) as usize;
                    let members = (0..2 * f_c + 1).map(|k| PartyId(((at + k) % n) as u32));
                    (members.collect(), f_c + 1)
                };
                let quorum = match picks & 2 {
                    0 => threshold,
                    _ => 1 + (picks >> 16) as usize % n,
                };
                let eligible: BTreeSet<PartyId> =
                    peers.iter().copied().filter(|p| *p != me).collect();
                // `threshold - 1` Byzantine peers, none of them this party.
                let rotate = (picks >> 32) as usize % n;
                let others = eligible.iter().cycle().skip(rotate).take(eligible.len());
                let byzantine: BTreeSet<PartyId> = others.take(threshold - 1).copied().collect();
                let peer_set: PartySet = peers.iter().copied().collect();
                let peers: Vec<PartyId> = peers.into_iter().collect();
                let echoers = of(echo_bits).collect::<Vec<_>>();
                let echo_set: PartySet = echoers.iter().copied().collect();

                // One plan, checked against the model and the rules.
                let step = |asked: &mut PartySet| {
                    let before: BTreeSet<PartyId> = asked.iter().collect();
                    let got = plan_pull(quorum, &echo_set, &peer_set, me, asked);
                    let mut model = before.clone();
                    let want = naive(quorum, &echoers, &peers, me, &mut model);
                    let after: BTreeSet<PartyId> = asked.iter().collect();
                    tk_assert!(got == want && after == model, "{got:?} vs {want:?}");
                    let distinct: BTreeSet<PartyId> = got.iter().copied().collect();
                    tk_assert_eq!(distinct.len(), got.len());
                    tk_assert!(distinct.is_subset(&eligible), "asks {got:?}");
                    tk_assert!(got.len() <= quorum, "asks {} > {quorum}", got.len());
                    // A first ask names `quorum` peers, or every eligible one.
                    if before.is_empty() {
                        tk_assert_eq!(got.len(), quorum.min(eligible.len()));
                    }
                    // It re-asks or forgets only once everyone was asked.
                    let restarts = !distinct.is_disjoint(&before) || !before.is_subset(&after);
                    if restarts {
                        tk_assert!(eligible.is_subset(&before), "restarts early: {got:?}");
                    }
                    Ok(())
                };

                step(&mut of(asked_bits).collect())?;
                let mut asked = PartySet::EMPTY;
                step(&mut asked)?;
                // f_c + 1 (or f + 1) distinct peers include an honest one.
                let reached: BTreeSet<PartyId> = asked.iter().collect();
                if quorum == threshold && eligible.len() > byzantine.len() {
                    tk_assert!(!reached.is_subset(&byzantine), "{reached:?}");
                }
                step(&mut asked)?;
                Ok(())
            },
        );
    }
}
