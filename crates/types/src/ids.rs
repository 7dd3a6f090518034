//! Identifiers and fault-threshold arithmetic for the tribe and its clans.

use std::fmt;

/// Index of a party within the tribe (`0..n`).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct PartyId(pub u32);

impl PartyId {
    /// The index as a `usize`, for table lookups.
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for PartyId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "P{}", self.0)
    }
}

/// A set of parties: one bit per index, the first [`PartySet::INLINE`] of
/// them held inline.
///
/// The per-delivery structures (a vertex's duplicate-edge check, a DAG
/// round's ordered and visited marks, an RBC instance's echo senders) are
/// sets over the tribe; the inline words live inside the record that owns
/// them, so testing or setting a member is an index, not a hash or a
/// pointer hop. Only a tribe larger than the inline part (beyond every size
/// the paper evaluates) reaches the heap, for the members past it.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct PartySet {
    low: [u64; PartySet::INLINE / 64],
    /// Words for parties `INLINE..`, grown by the insert that needs them
    /// (nothing is removed, so the last word is never zero).
    high: Vec<u64>,
}

impl PartySet {
    /// Parties indexed without leaving the record.
    pub const INLINE: usize = 256;

    /// The empty set.
    pub const EMPTY: PartySet = PartySet {
        low: [0; PartySet::INLINE / 64],
        high: Vec::new(),
    };

    /// Adds `p`; returns `true` if it was not yet a member.
    ///
    /// Callers bound an untrusted index by the tribe size first: a member
    /// past the inline part sizes the heap part.
    pub fn insert(&mut self, p: PartyId) -> bool {
        let at = p.idx() / 64;
        let word = match at.checked_sub(self.low.len()) {
            None => &mut self.low[at],
            Some(at) => {
                if self.high.len() <= at {
                    self.high.resize(at + 1, 0);
                }
                &mut self.high[at]
            }
        };
        let mask = 1u64 << (p.idx() % 64);
        let fresh = *word & mask == 0;
        *word |= mask;
        fresh
    }

    /// True iff `p` is a member.
    pub fn contains(&self, p: PartyId) -> bool {
        let at = p.idx() / 64;
        let word = match at.checked_sub(self.low.len()) {
            None => Some(&self.low[at]),
            Some(at) => self.high.get(at),
        };
        word.is_some_and(|w| w >> (p.idx() % 64) & 1 == 1)
    }

    /// Adds every member of `other`.
    pub fn union_with(&mut self, other: &PartySet) {
        for (a, b) in self.low.iter_mut().zip(&other.low) {
            *a |= b;
        }
        if self.high.len() < other.high.len() {
            self.high.resize(other.high.len(), 0);
        }
        for (a, b) in self.high.iter_mut().zip(&other.high) {
            *a |= b;
        }
    }

    /// Members in increasing index order.
    pub fn iter(&self) -> impl Iterator<Item = PartyId> + '_ {
        let words = self.low.iter().chain(&self.high);
        words.enumerate().flat_map(|(wi, &word)| {
            let mut rest = word;
            std::iter::from_fn(move || {
                (rest != 0).then(|| {
                    let bit = rest.trailing_zeros();
                    rest &= rest - 1;
                    PartyId(wi as u32 * 64 + bit)
                })
            })
        })
    }
}

/// A DAG round number.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug, Default)]
pub struct Round(pub u64);

impl Round {
    /// The first round.
    pub const GENESIS: Round = Round(0);

    /// The next round.
    pub fn next(self) -> Round {
        Round(self.0 + 1)
    }

    /// The previous round, or `None` at genesis.
    pub fn prev(self) -> Option<Round> {
        self.0.checked_sub(1).map(Round)
    }
}

impl fmt::Display for Round {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// Index of a clan within the tribe's partition (`0..q`).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct ClanId(pub u16);

impl fmt::Display for ClanId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "C{}", self.0)
    }
}

/// Fault-threshold parameters of the whole tribe.
///
/// A tribe of `n` parties tolerates `f = ⌊(n−1)/3⌋` Byzantine parties; the
/// consensus quorum is `2f + 1` (paper §2).
///
/// # Examples
///
/// ```
/// use clanbft_types::TribeParams;
///
/// let t = TribeParams::new(150);
/// assert_eq!(t.f(), 49);
/// assert_eq!(t.quorum(), 99);
/// assert_eq!(t.small_quorum(), 50);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TribeParams {
    n: usize,
}

impl TribeParams {
    /// Creates parameters for a tribe of `n` parties.
    ///
    /// # Panics
    ///
    /// Panics if `n < 4` (BFT requires `n ≥ 3f + 1` with `f ≥ 1`).
    pub fn new(n: usize) -> TribeParams {
        assert!(n >= 4, "tribe needs at least 4 parties, got {n}");
        TribeParams { n }
    }

    /// Total number of parties.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Maximum tolerated Byzantine parties, `⌊(n−1)/3⌋`.
    pub fn f(&self) -> usize {
        (self.n - 1) / 3
    }

    /// The Byzantine quorum `2f + 1`.
    pub fn quorum(&self) -> usize {
        2 * self.f() + 1
    }

    /// The "at least one honest" threshold `f + 1`.
    pub fn small_quorum(&self) -> usize {
        self.f() + 1
    }

    /// Iterates over all party ids.
    pub fn parties(&self) -> impl Iterator<Item = PartyId> {
        (0..self.n as u32).map(PartyId)
    }
}

/// Fault-threshold parameters of a clan (honest majority, paper §2).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ClanParams {
    nc: usize,
}

impl ClanParams {
    /// Creates parameters for a clan of `nc` parties.
    ///
    /// # Panics
    ///
    /// Panics if `nc < 3` (an honest-majority clan needs `nc ≥ 2f_c + 1`
    /// with `f_c ≥ 1`).
    pub fn new(nc: usize) -> ClanParams {
        assert!(nc >= 3, "clan needs at least 3 parties, got {nc}");
        ClanParams { nc }
    }

    /// Clan size.
    pub fn nc(&self) -> usize {
        self.nc
    }

    /// Maximum tolerated Byzantine clan members, `⌈nc/2⌉ − 1 = ⌊(nc−1)/2⌋`.
    pub fn fc(&self) -> usize {
        (self.nc - 1) / 2
    }

    /// The "at least one honest clan member" threshold `f_c + 1`.
    pub fn clan_quorum(&self) -> usize {
        self.fc() + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tribe_thresholds() {
        for (n, f) in [
            (4, 1),
            (7, 2),
            (10, 3),
            (50, 16),
            (100, 33),
            (150, 49),
            (500, 166),
        ] {
            let t = TribeParams::new(n);
            assert_eq!(t.f(), f, "n={n}");
            assert_eq!(t.quorum(), 2 * f + 1);
            assert_eq!(t.small_quorum(), f + 1);
            assert!(t.n() > 3 * t.f());
        }
    }

    #[test]
    fn clan_thresholds() {
        for (nc, fc) in [(3, 1), (32, 15), (60, 29), (80, 39), (184, 91)] {
            let c = ClanParams::new(nc);
            assert_eq!(c.fc(), fc, "nc={nc}");
            assert!(c.nc() > 2 * c.fc(), "honest majority holds");
        }
    }

    #[test]
    #[should_panic(expected = "at least 4")]
    fn tiny_tribe_rejected() {
        TribeParams::new(3);
    }

    #[test]
    fn party_set_members() {
        let mut s = PartySet::EMPTY;
        for i in [5u32, 63, 64, 255, 0] {
            assert!(s.insert(PartyId(i)));
        }
        assert!(!s.insert(PartyId(64)), "second insert reports not-fresh");
        assert!(s.contains(PartyId(255)) && !s.contains(PartyId(1)));
        assert!(!s.contains(PartyId(256)) && !s.contains(PartyId(u32::MAX)));
        let got: Vec<u32> = s.iter().map(|p| p.0).collect();
        assert_eq!(got, vec![0, 5, 63, 64, 255]);
        let mut t = PartySet::EMPTY;
        t.insert(PartyId(7));
        t.union_with(&s);
        assert_eq!(t.iter().count(), 6);
    }

    #[test]
    fn party_set_beyond_the_inline_words() {
        // The paper's n = 500 example: members on both sides of the inline
        // part, in either insertion order, are one and the same set.
        let members = [499u32, 3, 256, 255, 320];
        let mut s = PartySet::EMPTY;
        let mut rev = PartySet::EMPTY;
        for (a, b) in members.iter().zip(members.iter().rev()) {
            assert!(s.insert(PartyId(*a)));
            assert!(rev.insert(PartyId(*b)));
        }
        assert_eq!(s, rev);
        assert!(!s.insert(PartyId(499)), "second insert reports not-fresh");
        assert!(s.contains(PartyId(320)) && !s.contains(PartyId(321)));
        assert!(!s.contains(PartyId(500)) && !s.contains(PartyId(u32::MAX)));
        let got: Vec<u32> = s.iter().map(|p| p.0).collect();
        assert_eq!(got, vec![3, 255, 256, 320, 499]);
        let mut t = PartySet::EMPTY;
        t.insert(PartyId(7));
        t.union_with(&s);
        assert_eq!(t.iter().count(), 6);
        assert!(t.contains(PartyId(499)) && t.contains(PartyId(7)));
    }

    #[test]
    fn round_navigation() {
        assert_eq!(Round::GENESIS.next(), Round(1));
        assert_eq!(Round(5).prev(), Some(Round(4)));
        assert_eq!(Round::GENESIS.prev(), None);
    }

    #[test]
    fn party_iteration() {
        let t = TribeParams::new(5);
        let ids: Vec<u32> = t.parties().map(|p| p.0).collect();
        assert_eq!(ids, vec![0, 1, 2, 3, 4]);
    }
}
