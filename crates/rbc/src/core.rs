//! The threshold core: the rules of the paper's Fig. 2 and Fig. 3, one pure
//! function per flavour. A function takes an instance's vote state and one
//! vote, counts the vote and returns the transitions the figure requires.
//! It sees no packet, effect, trace, pull, custody, share or signature:
//! certificates reach it as signer counts. Every transition of a [`Step`]
//! is for the vote's own digest; the once-facts ([`Once`]) are per
//! instance, whatever the digest. The functions are always inlined into the
//! engine's echo path, its hot loop (see `TribeRbc::vote`).

use crate::topology::ClanInfo;
use clanbft_crypto::Digest;
use clanbft_types::{PartyId, PartySet, TribeParams};

/// Distinct digests tracked per instance, for echoes and for readies,
/// before further ones are dropped: two prove equivocation; the margin
/// absorbs replay noise without letting a Byzantine source allocate
/// unboundedly.
pub const MAX_DIGESTS_PER_INSTANCE: usize = 4;

/// The votes (echoes, or readies) seen for one digest. Fixed size, and up
/// to [`PartySet::INLINE`] parties nothing behind a pointer.
pub(crate) struct Tally {
    pub(crate) digest: Digest,
    pub(crate) voters: PartySet,
    /// Size of `voters`; zero only in an instance's unused first echo tally.
    pub(crate) total: u16,
    /// Voters from the source's clan (echoes only).
    clan_count: u16,
}

impl Tally {
    pub(crate) fn new(digest: Digest) -> Tally {
        Tally {
            digest,
            voters: PartySet::EMPTY,
            total: 0,
            clan_count: 0,
        }
    }

    /// A tally every party of a tribe of `n` voted in: what a settled
    /// instance's first echo tally is, once [`Tally::settle`] names its
    /// digest.
    pub(crate) fn unanimous(n: usize) -> Tally {
        Tally {
            digest: Digest::ZERO,
            voters: (0..n as u32).map(PartyId).collect(),
            total: n as u16,
            clan_count: 0,
        }
    }

    /// Makes a [`Tally::unanimous`] one the tally of `digest`, every member
    /// of `clan` among its voters.
    pub(crate) fn settle(&mut self, digest: Digest, clan: &ClanInfo) {
        self.digest = digest;
        self.clan_count = clan.len() as u16;
    }

    /// Counts `from`'s vote; `false` if it was counted before.
    fn add(&mut self, from: PartyId, in_clan: bool) -> bool {
        let fresh = self.voters.insert(from);
        self.total += u16::from(fresh);
        self.clan_count += u16::from(fresh && in_clan);
        fresh
    }
}

/// The tallies an instance's hot record has no room for, kept in its cold
/// part: echoes for the second and later digests, in first-seen order, each
/// beside the `S` the engine keeps for it (the signed flavour's shares;
/// made empty here and never read), and the readies.
#[derive(Default)]
pub(crate) struct Spill<S> {
    pub(crate) echoes: Vec<(Tally, S)>,
    pub(crate) readies: Vec<Tally>,
}

/// What an instance does at most once, whatever the digest.
#[derive(Default)]
pub(crate) struct Once {
    cert_sent: bool,
    echo_quorum: bool,
    ready_sent: bool,
}

impl Once {
    /// The once-facts of a certified instance whose first echo tally holds
    /// every party: the echo quorum has fired, and the certificate (Fig. 3)
    /// or READY (Fig. 2) has gone out — sent by the echo that met the
    /// quorum, unless a received certificate or `f + 1` READYs sent it
    /// first.
    pub(crate) fn settled(signed: bool) -> Once {
        Once {
            cert_sent: signed,
            echo_quorum: true,
            ready_sent: !signed,
        }
    }
}

/// Fires a once-fact: true the first time only.
fn once(done: &mut bool) -> bool {
    !std::mem::replace(done, true)
}

/// Both figures' echo quorum, and what makes a certificate valid: `2f+1`
/// votes, `f_c+1` of them from the source's clan.
fn met(tribe: TribeParams, clan: &ClanInfo, total: usize, in_clan: usize) -> bool {
    total >= tribe.quorum() && in_clan >= clan.clan_quorum
}

/// One vote, as both figures count it.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Vote {
    /// An ECHO from a party for a digest.
    Echo(PartyId, Digest),
    /// A READY from a party for a digest (Fig. 2 only).
    Ready(PartyId, Digest),
    /// A received certificate (Fig. 3 only), reduced to its signers once
    /// culprits are pruned: how many, and how many of them from the
    /// source's clan.
    Cert(usize, usize),
}

/// How a vote was counted.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub(crate) enum Count {
    /// Counted. A certificate always is, and so is a vote the flavour has
    /// no rule for (the engine passes none).
    #[default]
    Counted,
    /// An echo counted in a tally it opened beside the first digest's: the
    /// source stands behind two.
    Split,
    /// Counted for this digest before.
    Duplicate,
    /// A new digest, dropped: [`MAX_DIGESTS_PER_INSTANCE`] are tracked.
    Capped,
}

/// What one vote did. The engine applies the transitions in field order,
/// which is the order in which each figure's rules fire.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub(crate) struct Step {
    pub(crate) count: Count,
    /// Multicast the certificate: formed from the echoes, or the received
    /// one forwarded (once).
    pub(crate) send_cert: bool,
    /// The echo quorum is in (once).
    pub(crate) echo_quorum: bool,
    /// Multicast READY (once).
    pub(crate) send_ready: bool,
    /// Certify: the engine keeps the first.
    pub(crate) certify: bool,
}

/// Paper Fig. 2, three rounds, signature-free: READY once on `2f+1` ECHOes
/// with `f_c+1` from the source's clan (so the payload is retrievable), or
/// on `f+1` READYs (amplification); `2f+1` READYs certify.
#[inline(always)]
pub(crate) fn signature_free<'a, S: Default + 'a>(
    tribe: TribeParams,
    clan: &ClanInfo,
    first: &mut Tally,
    done: &mut Once,
    spill: impl FnOnce() -> &'a mut Spill<S>,
    vote: Vote,
) -> Step {
    match vote {
        Vote::Echo(from, digest) => {
            let (count, met) = count_echo(tribe, clan, first, spill, from, digest);
            Step {
                count,
                echo_quorum: met && once(&mut done.echo_quorum),
                send_ready: met && once(&mut done.ready_sent),
                ..Step::default()
            }
        }
        Vote::Ready(from, digest) => {
            let (count, total) = count_ready(&mut spill().readies, from, digest);
            Step {
                count,
                send_ready: total >= tribe.small_quorum() && once(&mut done.ready_sent),
                certify: total >= tribe.quorum(),
                ..Step::default()
            }
        }
        Vote::Cert(..) => Step::default(),
    }
}

/// Paper Fig. 3, two rounds, signed: `2f+1` ECHOes with `f_c+1` from the
/// clan form the certificate `EC_r(m)` once; a valid certificate, formed or
/// received, is multicast once and certifies. Forwarding a received one is
/// required for agreement when a Byzantine party sent it selectively — the
/// paper's proof implicitly assumes it.
#[inline(always)]
pub(crate) fn signed<'a, S: Default + 'a>(
    tribe: TribeParams,
    clan: &ClanInfo,
    first: &mut Tally,
    done: &mut Once,
    spill: impl FnOnce() -> &'a mut Spill<S>,
    vote: Vote,
) -> Step {
    let (count, valid) = match vote {
        Vote::Echo(from, digest) => {
            let (count, met) = count_echo(tribe, clan, first, spill, from, digest);
            // Echoes after the certificate change nothing.
            (count, met && !done.cert_sent)
        }
        Vote::Cert(signers, in_clan) => (Count::Counted, met(tribe, clan, signers, in_clan)),
        Vote::Ready(..) => (Count::Counted, false),
    };
    Step {
        count,
        send_cert: valid && once(&mut done.cert_sent),
        echo_quorum: valid && once(&mut done.echo_quorum),
        certify: valid,
        ..Step::default()
    }
}

/// Counts an echo — in the hot record's tally if its digest is the
/// instance's first, else in a spilled one — and says whether the digest
/// now has its echo quorum.
#[inline(always)]
fn count_echo<'a, S: Default + 'a>(
    tribe: TribeParams,
    clan: &ClanInfo,
    first: &mut Tally,
    spill: impl FnOnce() -> &'a mut Spill<S>,
    from: PartyId,
    digest: Digest,
) -> (Count, bool) {
    if first.total == 0 {
        first.digest = digest;
    }
    let (tally, count) = if first.digest == digest {
        (first, Count::Counted)
    } else {
        let spilled = &mut spill().echoes;
        let (at, count) = match spilled.iter().position(|(t, _)| t.digest == digest) {
            Some(at) => (at, Count::Counted),
            None if 1 + spilled.len() >= MAX_DIGESTS_PER_INSTANCE => return (Count::Capped, false),
            None => {
                spilled.push((Tally::new(digest), S::default()));
                (spilled.len() - 1, Count::Split)
            }
        };
        (&mut spilled[at].0, count)
    };
    if !tally.add(from, clan.contains(from)) {
        return (Count::Duplicate, false);
    }
    let (total, from_clan) = (usize::from(tally.total), usize::from(tally.clan_count));
    (count, met(tribe, clan, total, from_clan))
}

/// Counts a READY: how, and how many READYs its digest has now (0 if it
/// was not counted).
fn count_ready(readies: &mut Vec<Tally>, from: PartyId, digest: Digest) -> (Count, usize) {
    let at = match readies.iter().position(|t| t.digest == digest) {
        Some(at) => at,
        None if readies.len() >= MAX_DIGESTS_PER_INSTANCE => return (Count::Capped, 0),
        None => {
            readies.push(Tally::new(digest));
            readies.len() - 1
        }
    };
    let tally = &mut readies[at];
    if !tally.add(from, false) {
        return (Count::Duplicate, 0);
    }
    (Count::Counted, usize::from(tally.total))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::ClanTopology;
    use clanbft_testkit::{check_shrink, tk_assert, tk_assert_eq};
    use std::collections::{BTreeMap, BTreeSet};

    type Voters = BTreeMap<Digest, BTreeSet<PartyId>>;

    /// Figs. 2 and 3 transcribed as naively as they read: per-digest sets
    /// of voters, a clan count by intersection, three booleans, and the
    /// core's digest cap.
    #[derive(Default)]
    struct Naive {
        echoes: Voters,
        readies: Voters,
        cert_sent: bool,
        echo_quorum: bool,
        ready_sent: bool,
    }

    /// Adds `from` to `digest`'s voters unless the cap refuses a new
    /// digest; returns how, and the voters if it was counted.
    fn naive_count(
        sets: &mut Voters,
        from: PartyId,
        digest: Digest,
    ) -> (Count, Option<&BTreeSet<PartyId>>) {
        let new = !sets.contains_key(&digest);
        if new && sets.len() == MAX_DIGESTS_PER_INSTANCE {
            return (Count::Capped, None);
        }
        let count = if new && !sets.is_empty() {
            Count::Split
        } else {
            Count::Counted
        };
        let voters = sets.entry(digest).or_default();
        if !voters.insert(from) {
            return (Count::Duplicate, None);
        }
        (count, Some(voters))
    }

    /// Sets `flag`; true if this set it.
    fn first_time(flag: &mut bool) -> bool {
        !std::mem::replace(flag, true)
    }

    impl Naive {
        fn step(&mut self, signed: bool, tribe: TribeParams, clan: &ClanInfo, vote: Vote) -> Step {
            let clan_set: BTreeSet<PartyId> = clan.members.iter().copied().collect();
            let mut step = Step::default();
            match vote {
                Vote::Echo(from, digest) => {
                    let (count, voters) = naive_count(&mut self.echoes, from, digest);
                    step.count = count;
                    // Both figures: 2f+1 ECHOes, f_c+1 of them from the clan.
                    let quorum = voters.is_some_and(|v| {
                        v.len() >= tribe.quorum()
                            && v.intersection(&clan_set).count() >= clan.clan_quorum
                    });
                    if quorum && !signed {
                        // Fig. 2: the echo quorum sends READY.
                        step.echo_quorum = first_time(&mut self.echo_quorum);
                        step.send_ready = first_time(&mut self.ready_sent);
                    }
                    if quorum && signed && first_time(&mut self.cert_sent) {
                        // Fig. 3: the echo quorum forms EC_r(m), multicasts
                        // it and delivers.
                        step.send_cert = true;
                        step.echo_quorum = first_time(&mut self.echo_quorum);
                        step.certify = true;
                    }
                }
                Vote::Ready(from, digest) if !signed => {
                    let (count, voters) = naive_count(&mut self.readies, from, digest);
                    // A second READY digest is not evidence.
                    step.count = if count == Count::Split {
                        Count::Counted
                    } else {
                        count
                    };
                    let readies = voters.map_or(0, BTreeSet::len);
                    // Fig. 2: f+1 READYs send READY; 2f+1 certify.
                    if readies >= tribe.small_quorum() {
                        step.send_ready = first_time(&mut self.ready_sent);
                    }
                    step.certify = readies >= tribe.quorum();
                }
                Vote::Cert(signers, in_clan) if signed => {
                    // Fig. 3: a valid certificate is forwarded once and
                    // delivers.
                    if signers >= tribe.quorum() && in_clan >= clan.clan_quorum {
                        step.send_cert = first_time(&mut self.cert_sent);
                        step.echo_quorum = first_time(&mut self.echo_quorum);
                        step.certify = true;
                    }
                }
                Vote::Ready(..) | Vote::Cert(..) => {}
            }
            step
        }
    }

    /// The core against [`Naive`] after every vote of a random sequence, in
    /// both flavours: n from 4 to 16; the whole tribe as the clan, or a clan
    /// of `2 f_c + 1` with exactly `f_c + 1` honest members; duplicates;
    /// Byzantine voters spread over up to `MAX_DIGESTS_PER_INSTANCE + 1`
    /// digests; certificates at each threshold and one below it.
    #[test]
    fn the_threshold_core_matches_a_naive_transcription_of_figs_2_and_3() {
        check_shrink(
            "the_threshold_core_matches_a_naive_transcription_of_figs_2_and_3",
            256,
            |g| {
                let votes = g.vec(0, 96, |g| (g.u8(), g.u8(), g.u8()));
                (g.bool(), g.u8(), g.u8(), g.u8(), votes)
            },
            |&(fig3, n, clan_pick, digests, ref votes)| {
                let tribe = TribeParams::new(4 + usize::from(n) % 13);
                let (n, f) = (tribe.n(), tribe.f());
                // The clan, and its Byzantine members first.
                let (members, clan_f): (Vec<PartyId>, usize) = if clan_pick % 2 == 0 {
                    (tribe.parties().collect(), f)
                } else {
                    let f_c = usize::from(clan_pick / 2) % (f + 1);
                    let at = usize::from(clan_pick) % n;
                    let members = (0..2 * f_c + 1).map(|k| PartyId(((at + k) % n) as u32));
                    (members.collect(), f_c)
                };
                let topology = if clan_pick % 2 == 0 {
                    ClanTopology::whole_tribe(tribe)
                } else {
                    ClanTopology::single_clan(tribe, members.clone())
                };
                let clan = topology.clan_for_sender(PartyId(0));
                let outside = tribe.parties().filter(|p| !clan.contains(*p));
                let byzantine: BTreeSet<PartyId> = members[..clan_f]
                    .iter()
                    .copied()
                    .chain(outside.take(f - clan_f))
                    .collect();
                let digests = 1 + usize::from(digests) % (MAX_DIGESTS_PER_INSTANCE + 1);
                let (quorum, clan_quorum) = (tribe.quorum(), clan.clan_quorum);

                let mut first = Tally::new(Digest::ZERO);
                let mut once = Once::default();
                let mut spill = Spill::<()>::default();
                let mut naive = Naive::default();
                for (at, &(kind, who, what)) in votes.iter().enumerate() {
                    let from = PartyId(u32::from(who) % n as u32);
                    let digest = match byzantine.contains(&from) {
                        true => Digest::of(&[what % digests as u8]),
                        false => Digest::of(&[0]),
                    };
                    let vote = match (kind % 3, fig3) {
                        (0 | 1, _) => Vote::Echo(from, digest),
                        (_, false) => Vote::Ready(from, digest),
                        (_, true) => {
                            let signers = [quorum - 1, quorum, n][usize::from(what) % 3];
                            let in_clan = [clan_quorum - 1, clan_quorum][usize::from(what / 3) % 2];
                            Vote::Cert(signers, in_clan)
                        }
                    };
                    let got = if fig3 {
                        signed(tribe, clan, &mut first, &mut once, || &mut spill, vote)
                    } else {
                        signature_free(tribe, clan, &mut first, &mut once, || &mut spill, vote)
                    };
                    let want = naive.step(fig3, tribe, clan, vote);
                    tk_assert!(
                        got == want,
                        "vote {at}, {vote:?}: core {got:?}, model {want:?}"
                    );
                    // The tallies hold the naive voter sets.
                    let tallies = std::iter::once(&first)
                        .filter(|t| t.total > 0)
                        .chain(spill.echoes.iter().map(|(t, ())| t))
                        .map(|t| (t, &naive.echoes))
                        .chain(spill.readies.iter().map(|t| (t, &naive.readies)));
                    for (tally, sets) in tallies {
                        let voters: BTreeSet<PartyId> = tally.voters.iter().collect();
                        let want = sets.get(&tally.digest);
                        tk_assert!(
                            want == Some(&voters),
                            "vote {at}: {voters:?}, model {want:?}"
                        );
                        tk_assert_eq!(usize::from(tally.total), voters.len());
                    }
                }
                Ok(())
            },
        );
    }
}
