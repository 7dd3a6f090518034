//! Whom a pull asks: every choice of targets the pull sub-protocol makes,
//! in one pure function, as the threshold core owns every threshold.

use clanbft_types::{PartyId, PartySet};

/// What a pull is for.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Ask {
    /// The echo quorum, reached without the view (§5's early download).
    Probe,
    /// Certification without the view, after a probe or not.
    FanOut { probed: bool },
    /// A retry deadline, expired with the view still missing.
    Retry,
}

/// The peers to ask, in order, added to `asked`. `peers` can serve the view,
/// any `quorum` of them include an honest one, and `echoers` were counted
/// echoing the wanted digest; this party is never asked. A probe asks the
/// first echoer and a fan-out the first `quorum`, or as many peers if no
/// echoer is counted. After a probe the fan-out skips the first echoer,
/// without fallback: one fewer than `quorum`, or nobody, and perhaps an
/// echoer never asked (ROADMAP item 4(b)). A retry asks `quorum` peers not
/// yet asked, echoers first; once all were, `asked` starts over.
pub(crate) fn plan_pull(
    ask: Ask,
    quorum: usize,
    echoers: &PartySet,
    peers: &PartySet,
    me: PartyId,
    asked: &mut PartySet,
) -> Vec<PartyId> {
    let eligible = |p: &PartyId| *p != me && peers.contains(*p);
    let want = if ask == Ask::Probe { 1 } else { quorum };
    let skip = usize::from(ask == Ask::FanOut { probed: true });
    let mut targets: Vec<PartyId> = if ask == Ask::Retry {
        let fresh = |p: &PartyId| eligible(p) && !asked.contains(*p);
        let others = peers.iter().filter(|p| !echoers.contains(*p) && fresh(p));
        let unasked = echoers.iter().filter(fresh).chain(others);
        unasked.take(want).collect()
    } else {
        let counted = echoers.iter().filter(eligible);
        counted.take(want).skip(skip).collect()
    };
    if targets.is_empty() && skip == 0 {
        if ask == Ask::Retry {
            *asked = PartySet::EMPTY;
        }
        targets = peers.iter().filter(eligible).take(want).collect();
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
    fn plan(ask: Ask, echoers: &[u32], asked: &[u32]) -> (Vec<u32>, Vec<u32>) {
        let mut asked = set(asked);
        let targets = plan_pull(ask, 3, &set(echoers), &set(&CLAN), PartyId(5), &mut asked);
        (ids(&targets), ids(&asked.iter().collect::<Vec<_>>()))
    }

    #[test]
    fn the_planner_makes_todays_choices() {
        let fan_out = Ask::FanOut { probed: false };
        // The probe goes to the first counted clan echoer (0 is outside the
        // clan, 5 is this party).
        assert_eq!(plan(Ask::Probe, &[0, 5, 3, 4], &[]), (vec![3], vec![3]));
        // With no clan echoer counted it falls back to the lowest-id peer.
        assert_eq!(plan(Ask::Probe, &[0], &[]).0, [1]);
        assert_eq!(plan(Ask::Probe, &[], &[]).0, [1]);
        // The fan-out asks f_c + 1 echoers, or f_c + 1 peers if none counted.
        assert_eq!(plan(fan_out, &[0, 2, 3, 4, 5], &[]).0, [2, 3, 4]);
        assert_eq!(plan(fan_out, &[9], &[]).0, [1, 2, 3]);
        // The meta view's scope is the tribe, and f + 1 of it are asked.
        let mut asked = PartySet::EMPTY;
        let (echoers, tribe) = (set(&[0, 1, 3, 5, 6, 9]), set(&ALL));
        let targets = plan_pull(fan_out, 4, &echoers, &tribe, PartyId(0), &mut asked);
        assert_eq!(ids(&targets), [1, 3, 5, 6]);
        // A retry asks echoers not yet asked first, then anyone ...
        let (targets, asked) = plan(Ask::Retry, &[3, 4], &[1]);
        assert_eq!((targets, &asked[..]), (vec![3, 4, 2], &[1, 2, 3, 4][..]));
        let (targets, asked) = plan(Ask::Retry, &[2, 3], &[1, 3]);
        assert_eq!((targets, asked), (vec![2, 4], vec![1, 2, 3, 4]));
        // ... and restarts once everyone was asked.
        let (targets, asked) = plan(Ask::Retry, &[3, 4], &[1, 2, 3, 4]);
        assert_eq!((targets, asked), (vec![1, 2, 3], vec![1, 2, 3]));
    }

    #[test]
    fn the_fan_out_after_a_probe_falls_short() {
        let fan_out = Ask::FanOut { probed: true };
        // (a) ROADMAP 4(b) flips this row: the probe went to echoer 2; at
        // certification only 2 is counted, and the fan-out asks nobody.
        assert_eq!(plan(Ask::Probe, &[2], &[]), (vec![2], vec![2]));
        assert_eq!(plan(fan_out, &[2], &[2]), (vec![], vec![2]));
        // (b) ROADMAP 4(b) flips this row: a fallback probe went to 1, who
        // echoed nothing; at certification the fan-out skips echoer 3, who
        // was never asked.
        assert_eq!(plan(Ask::Probe, &[], &[]), (vec![1], vec![1]));
        assert_eq!(plan(fan_out, &[3, 4], &[1]), (vec![4], vec![1, 4]));
    }

    /// The three choices as the engine wrote them before the planner: the
    /// scope collected into a vector, the probe and the fan-out as one
    /// `take(want).skip(already)` with its fallback, the retry as a loop.
    fn naive(
        ask: Ask,
        quorum: usize,
        echoers: &[PartyId],
        peers: &[PartyId],
        me: PartyId,
        asked: &mut BTreeSet<PartyId>,
    ) -> Vec<PartyId> {
        let eligible: Vec<PartyId> = peers.iter().copied().filter(|p| *p != me).collect();
        let mut targets = Vec::new();
        if let Ask::Retry = ask {
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
        } else {
            let (want, already) = match ask {
                Ask::FanOut { probed } => (quorum, usize::from(probed)),
                _ => (1, 0),
            };
            let counted = echoers.iter().filter(|p| eligible.contains(p));
            targets = counted.copied().take(want).skip(already).collect();
            if targets.is_empty() && already == 0 {
                targets = eligible.iter().copied().take(want).collect();
            }
        }
        asked.extend(&targets);
        targets
    }

    /// The planner against [`naive`], and what the download step needs of
    /// it. Tribes of 4 to 20; the scope is the tribe (`f + 1`) or a clan of
    /// `2 f_c + 1` with exactly `f_c + 1` honest members, this party
    /// anywhere; echoer and `asked` sets at random, and sometimes a random
    /// `quorum`. Every occasion from the random `asked` set, then a fresh
    /// pull: a probe or not, the fan-out and one retry.
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

                // One plan, checked against the model and the rules.
                let step = |ask: Ask, echoers: &[PartyId], asked: &mut PartySet| {
                    let echo_set: PartySet = echoers.iter().copied().collect();
                    let before: BTreeSet<PartyId> = asked.iter().collect();
                    let got = plan_pull(ask, quorum, &echo_set, &peer_set, me, asked);
                    let mut model = before.clone();
                    let want = naive(ask, quorum, echoers, &peers, me, &mut model);
                    let after: BTreeSet<PartyId> = asked.iter().collect();
                    tk_assert!(
                        got == want && after == model,
                        "{ask:?}: {got:?} vs {want:?}"
                    );
                    let distinct: BTreeSet<PartyId> = got.iter().copied().collect();
                    tk_assert_eq!(distinct.len(), got.len());
                    tk_assert!(distinct.is_subset(&eligible), "{ask:?} asks {got:?}");
                    let cap = if ask == Ask::Probe { 1 } else { quorum };
                    tk_assert!(got.len() <= cap, "{ask:?} asks {} > {cap}", got.len());
                    // A retry re-asks or forgets only once everyone was asked.
                    let restarts = !distinct.is_disjoint(&before) || !before.is_subset(&after);
                    if ask == Ask::Retry && restarts {
                        tk_assert!(eligible.is_subset(&before), "restarts early: {got:?}");
                    }
                    Ok(())
                };

                let probed = of(echo_bits & picks >> 24).collect::<Vec<_>>();
                let echoers = of(echo_bits).collect::<Vec<_>>();
                for ask in [
                    Ask::Probe,
                    Ask::FanOut { probed: false },
                    Ask::FanOut { probed: true },
                    Ask::Retry,
                ] {
                    step(ask, &echoers, &mut of(asked_bits).collect())?;
                }
                let mut asked = PartySet::EMPTY;
                let probe = picks & 4 != 0;
                if probe {
                    step(Ask::Probe, &probed, &mut asked)?;
                }
                step(Ask::FanOut { probed: probe }, &echoers, &mut asked)?;
                step(Ask::Retry, &echoers, &mut asked)?;
                let reached: BTreeSet<PartyId> = asked.iter().collect();
                tk_assert!(reached.len() >= quorum.min(eligible.len()), "{reached:?}");
                // f_c + 1 (or f + 1) distinct peers include an honest one.
                if quorum == threshold && eligible.len() > byzantine.len() {
                    tk_assert!(!reached.is_subset(&byzantine), "{reached:?}");
                }
                Ok(())
            },
        );
    }
}
