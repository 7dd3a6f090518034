//! Clan election and tribe partitioning.
//!
//! The paper elects clans uniformly at random (the statistical analysis
//! assumes uniformity). For its evaluation it instead spreads clan members
//! evenly across the five GCP regions "to produce more uniform output"; the
//! region-balanced elector reproduces that choice and is what the Fig. 5/6
//! benches use.

use clanbft_crypto::ClanRng;
use clanbft_types::{ClanId, PartyId};

/// Which parties belong to which clan.
///
/// Every committee-aware protocol component consults this: proposer rights
/// (single-clan), block dissemination targets, echo-threshold bookkeeping
/// (`f_c + 1` from the clan), and the execution layer.
#[derive(Clone, Debug)]
pub struct ClanAssignment {
    /// Tribe size.
    n: usize,
    /// Clan membership lists, each sorted by party id.
    clans: Vec<Vec<PartyId>>,
    /// Per-party clan id (`None` for parties outside every clan).
    member_of: Vec<Option<ClanId>>,
}

impl ClanAssignment {
    /// Builds an assignment from explicit member lists.
    ///
    /// # Panics
    ///
    /// Panics if a party id is out of range or appears in two clans.
    pub fn new(n: usize, mut clans: Vec<Vec<PartyId>>) -> ClanAssignment {
        let mut member_of = vec![None; n];
        for (ci, members) in clans.iter_mut().enumerate() {
            members.sort_unstable();
            for &p in members.iter() {
                assert!(p.idx() < n, "party {p} out of range (n={n})");
                assert!(
                    member_of[p.idx()].is_none(),
                    "party {p} assigned to two clans"
                );
                member_of[p.idx()] = Some(ClanId(ci as u16));
            }
        }
        ClanAssignment {
            n,
            clans,
            member_of,
        }
    }

    /// Elects a single clan of `nc` parties uniformly at random.
    pub fn elect_uniform(n: usize, nc: usize, seed: u64) -> ClanAssignment {
        assert!(nc <= n, "clan larger than tribe");
        let mut rng = ClanRng::seed_from_u64(seed);
        let mut ids: Vec<PartyId> = (0..n as u32).map(PartyId).collect();
        // Partial Fisher–Yates: only the elected prefix needs shuffling.
        rng.partial_shuffle(&mut ids, nc);
        ids.truncate(nc);
        ClanAssignment::new(n, vec![ids])
    }

    /// Elects a single clan of `nc` parties spread evenly across region
    /// groups (`region_of[p]` gives party `p`'s group), mirroring the
    /// paper's evaluation setup.
    pub fn elect_region_balanced(
        n: usize,
        nc: usize,
        region_of: &[usize],
        seed: u64,
    ) -> ClanAssignment {
        assert_eq!(region_of.len(), n, "region table size mismatch");
        assert!(nc <= n, "clan larger than tribe");
        let mut rng = ClanRng::seed_from_u64(seed);
        let regions = region_of.iter().copied().max().map_or(1, |m| m + 1);
        let mut by_region: Vec<Vec<PartyId>> = vec![Vec::new(); regions];
        for (p, &r) in region_of.iter().enumerate() {
            by_region[r].push(PartyId(p as u32));
        }
        for bucket in &mut by_region {
            rng.shuffle(bucket);
        }
        // Round-robin across regions until the clan is full.
        let mut members = Vec::with_capacity(nc);
        let mut cursor = vec![0usize; regions];
        'outer: loop {
            let mut progressed = false;
            for r in 0..regions {
                if members.len() == nc {
                    break 'outer;
                }
                if cursor[r] < by_region[r].len() {
                    members.push(by_region[r][cursor[r]]);
                    cursor[r] += 1;
                    progressed = true;
                }
            }
            if !progressed {
                break;
            }
        }
        assert_eq!(members.len(), nc, "not enough parties to fill the clan");
        ClanAssignment::new(n, vec![members])
    }

    /// Partitions the whole tribe into `q` disjoint clans of near-equal
    /// size, uniformly at random. Every party lands in a clan; the first
    /// `n mod q` clans take the extra members.
    pub fn partition_uniform(n: usize, q: usize, seed: u64) -> ClanAssignment {
        assert!(q >= 1 && q <= n, "invalid clan count");
        let mut rng = ClanRng::seed_from_u64(seed);
        let mut ids: Vec<PartyId> = (0..n as u32).map(PartyId).collect();
        rng.shuffle(&mut ids);
        let sizes = crate::multiclan::even_clan_sizes(n as u64, q as u64);
        let mut clans = Vec::with_capacity(q);
        let mut off = 0usize;
        for &sz in &sizes {
            clans.push(ids[off..off + sz as usize].to_vec());
            off += sz as usize;
        }
        ClanAssignment::new(n, clans)
    }

    /// Partitions the tribe into `q` clans while balancing each clan across
    /// region groups (the evaluation layout for multi-clan Sailfish).
    pub fn partition_region_balanced(
        n: usize,
        q: usize,
        region_of: &[usize],
        seed: u64,
    ) -> ClanAssignment {
        assert_eq!(region_of.len(), n, "region table size mismatch");
        assert!(q >= 1 && q <= n, "invalid clan count");
        let mut rng = ClanRng::seed_from_u64(seed);
        let regions = region_of.iter().copied().max().map_or(1, |m| m + 1);
        let mut by_region: Vec<Vec<PartyId>> = vec![Vec::new(); regions];
        for (p, &r) in region_of.iter().enumerate() {
            by_region[r].push(PartyId(p as u32));
        }
        for bucket in &mut by_region {
            rng.shuffle(bucket);
        }
        // Deal parties region-by-region, round-robin across clans, so each
        // clan gets an even regional mix and sizes stay balanced.
        let mut clans: Vec<Vec<PartyId>> = vec![Vec::new(); q];
        let mut next = 0usize;
        for bucket in by_region {
            for p in bucket {
                clans[next].push(p);
                next = (next + 1) % q;
            }
        }
        ClanAssignment::new(n, clans)
    }

    /// Tribe size.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of clans.
    pub fn clan_count(&self) -> usize {
        self.clans.len()
    }

    /// Members of clan `c`, sorted by id.
    pub fn members(&self, c: ClanId) -> &[PartyId] {
        &self.clans[c.0 as usize]
    }

    /// The clan party `p` belongs to, if any.
    pub fn clan_of(&self, p: PartyId) -> Option<ClanId> {
        self.member_of[p.idx()]
    }

    /// True iff `p` belongs to some clan.
    pub fn in_any_clan(&self, p: PartyId) -> bool {
        self.clan_of(p).is_some()
    }

    /// The `f_c + 1` threshold for clan `c` (`⌊(n_c−1)/2⌋ + 1`).
    pub fn clan_quorum(&self, c: ClanId) -> usize {
        let nc = self.clans[c.0 as usize].len();
        (nc - 1) / 2 + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_election_basics() {
        let a = ClanAssignment::elect_uniform(50, 32, 7);
        assert_eq!(a.clan_count(), 1);
        assert_eq!(a.members(ClanId(0)).len(), 32);
        let in_clan = (0..50).filter(|&p| a.in_any_clan(PartyId(p))).count();
        assert_eq!(in_clan, 32);
        assert_eq!(a.clan_quorum(ClanId(0)), 16); // fc = 15 for nc = 32
    }

    #[test]
    fn election_is_seed_deterministic() {
        let a = ClanAssignment::elect_uniform(100, 60, 11);
        let b = ClanAssignment::elect_uniform(100, 60, 11);
        let c = ClanAssignment::elect_uniform(100, 60, 12);
        assert_eq!(a.members(ClanId(0)), b.members(ClanId(0)));
        assert_ne!(a.members(ClanId(0)), c.members(ClanId(0)));
    }

    /// The exact clans for fixed seeds are pinned so that any change to the
    /// PRNG or shuffle order — which silently re-randomizes every seeded
    /// experiment in the workspace — fails loudly here. These values were
    /// re-pinned once when the in-tree `ClanRng` replaced `rand::StdRng`
    /// (the streams are necessarily different); they must be stable across
    /// processes, platforms and releases from now on.
    #[test]
    fn election_pinned_across_processes() {
        let a = ClanAssignment::elect_uniform(10, 4, 42);
        let got: Vec<u32> = a.members(ClanId(0)).iter().map(|p| p.0).collect();
        assert_eq!(got, PINNED_ELECT_UNIFORM_10_4_SEED42);

        let b = ClanAssignment::partition_uniform(8, 2, 7);
        let got0: Vec<u32> = b.members(ClanId(0)).iter().map(|p| p.0).collect();
        let got1: Vec<u32> = b.members(ClanId(1)).iter().map(|p| p.0).collect();
        assert_eq!(got0, PINNED_PARTITION_8_2_SEED7_CLAN0);
        assert_eq!(got1, PINNED_PARTITION_8_2_SEED7_CLAN1);
    }

    const PINNED_ELECT_UNIFORM_10_4_SEED42: [u32; 4] = [3, 4, 8, 9];
    const PINNED_PARTITION_8_2_SEED7_CLAN0: [u32; 4] = [1, 2, 3, 6];
    const PINNED_PARTITION_8_2_SEED7_CLAN1: [u32; 4] = [0, 4, 5, 7];

    #[test]
    fn region_balanced_election_spreads() {
        // 50 parties round-robin over 5 regions; a 30-member clan must take
        // exactly 6 per region.
        let region_of: Vec<usize> = (0..50).map(|p| p % 5).collect();
        let a = ClanAssignment::elect_region_balanced(50, 30, &region_of, 3);
        let mut per_region = [0usize; 5];
        for &p in a.members(ClanId(0)) {
            per_region[region_of[p.idx()]] += 1;
        }
        assert_eq!(per_region, [6, 6, 6, 6, 6]);
    }

    #[test]
    fn partition_covers_tribe_disjointly() {
        let a = ClanAssignment::partition_uniform(150, 2, 5);
        assert_eq!(a.clan_count(), 2);
        assert_eq!(a.members(ClanId(0)).len(), 75);
        assert_eq!(a.members(ClanId(1)).len(), 75);
        for p in 0..150 {
            assert!(a.in_any_clan(PartyId(p)), "party {p} unassigned");
        }
    }

    #[test]
    fn uneven_partition_sizes() {
        let a = ClanAssignment::partition_uniform(10, 3, 1);
        let sizes: Vec<usize> = (0..3).map(|c| a.members(ClanId(c)).len()).collect();
        assert_eq!(sizes, vec![4, 3, 3]);
    }

    #[test]
    fn region_balanced_partition() {
        let region_of: Vec<usize> = (0..150).map(|p| p % 5).collect();
        let a = ClanAssignment::partition_region_balanced(150, 2, &region_of, 9);
        for c in 0..2u16 {
            let mut per_region = [0usize; 5];
            for &p in a.members(ClanId(c)) {
                per_region[region_of[p.idx()]] += 1;
            }
            assert_eq!(per_region, [15, 15, 15, 15, 15], "clan {c}");
        }
    }

    #[test]
    #[should_panic(expected = "two clans")]
    fn overlapping_clans_rejected() {
        ClanAssignment::new(5, vec![vec![PartyId(0), PartyId(1)], vec![PartyId(1)]]);
    }

    #[test]
    fn members_are_sorted() {
        let a = ClanAssignment::elect_uniform(20, 10, 99);
        let m = a.members(ClanId(0));
        assert!(m.windows(2).all(|w| w[0] < w[1]));
    }
}
