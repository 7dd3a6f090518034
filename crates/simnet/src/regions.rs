//! GCP regions and the inter-region latency matrix (paper Table 1).
//!
//! The paper distributes nodes evenly across five GCP regions and reports
//! their round-trip ping latencies; we use exactly those numbers, with
//! one-way delay = RTT/2 plus configurable jitter.

use clanbft_types::{Micros, PartyId};

/// The five GCP regions of the paper's evaluation.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Region {
    /// us-east1-b (South Carolina).
    UsEast1,
    /// us-west1-a (Oregon).
    UsWest1,
    /// europe-north1-a (Hamina, Finland).
    EuropeNorth1,
    /// asia-northeast1-a (Tokyo).
    AsiaNortheast1,
    /// australia-southeast1-a (Sydney).
    AustraliaSoutheast1,
}

/// All regions in the paper's table order.
pub const REGIONS: [Region; 5] = [
    Region::UsEast1,
    Region::UsWest1,
    Region::EuropeNorth1,
    Region::AsiaNortheast1,
    Region::AustraliaSoutheast1,
];

impl Region {
    /// Index into [`REGIONS`] and the RTT matrix.
    pub fn idx(self) -> usize {
        match self {
            Region::UsEast1 => 0,
            Region::UsWest1 => 1,
            Region::EuropeNorth1 => 2,
            Region::AsiaNortheast1 => 3,
            Region::AustraliaSoutheast1 => 4,
        }
    }

    /// Short display name matching the paper's abbreviations.
    pub fn name(self) -> &'static str {
        match self {
            Region::UsEast1 => "us-e-1",
            Region::UsWest1 => "us-w-1",
            Region::EuropeNorth1 => "eu-n-1",
            Region::AsiaNortheast1 => "as-ne-1",
            Region::AustraliaSoutheast1 => "au-se-1",
        }
    }
}

/// Round-trip ping latencies in milliseconds between the five regions
/// (paper Table 1; row = source, column = destination).
pub const RTT_MS: [[f64; 5]; 5] = [
    [0.75, 66.14, 114.75, 160.28, 197.98],
    [66.15, 0.66, 158.13, 89.56, 138.33],
    [115.40, 158.38, 0.69, 245.15, 295.13],
    [159.89, 90.05, 246.01, 0.66, 105.58],
    [197.60, 139.02, 294.36, 108.26, 0.58],
];

/// Per-node region assignment plus one-way latency lookups.
#[derive(Clone, Debug)]
pub struct LatencyMatrix {
    region_of: Vec<Region>,
    /// One-way delays in microseconds, `[src_region][dst_region]`.
    one_way_us: [[u64; 5]; 5],
}

impl LatencyMatrix {
    /// Assigns `n` nodes round-robin across the five regions (the paper's
    /// even distribution) with Table 1 delays.
    pub fn evenly_distributed(n: usize) -> LatencyMatrix {
        let region_of = (0..n).map(|i| REGIONS[i % 5]).collect();
        LatencyMatrix {
            region_of,
            one_way_us: Self::table1_one_way(),
        }
    }

    /// Places every node in a single region (near-zero latency; useful for
    /// isolating CPU/bandwidth effects in tests).
    pub fn single_region(n: usize) -> LatencyMatrix {
        let region_of = vec![Region::UsEast1; n];
        LatencyMatrix {
            region_of,
            one_way_us: Self::table1_one_way(),
        }
    }

    fn table1_one_way() -> [[u64; 5]; 5] {
        let mut m = [[0u64; 5]; 5];
        for (i, row) in RTT_MS.iter().enumerate() {
            for (j, &rtt) in row.iter().enumerate() {
                m[i][j] = (rtt / 2.0 * 1000.0).round() as u64;
            }
        }
        m
    }

    /// Number of nodes.
    pub fn n(&self) -> usize {
        self.region_of.len()
    }

    /// The region node `p` lives in.
    pub fn region_of(&self, p: PartyId) -> Region {
        self.region_of[p.idx()]
    }

    /// Region index table (for region-balanced clan election).
    pub fn region_indices(&self) -> Vec<usize> {
        self.region_of.iter().map(|r| r.idx()).collect()
    }

    /// Base one-way propagation delay from `src` to `dst` (no jitter).
    pub fn one_way(&self, src: PartyId, dst: PartyId) -> Micros {
        let s = self.region_of[src.idx()].idx();
        let d = self.region_of[dst.idx()].idx();
        Micros(self.one_way_us[s][d])
    }

    /// Base round-trip time between two nodes.
    pub fn rtt(&self, a: PartyId, b: PartyId) -> Micros {
        self.one_way(a, b) + self.one_way(b, a)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_robin_assignment() {
        let m = LatencyMatrix::evenly_distributed(12);
        assert_eq!(m.region_of(PartyId(0)), Region::UsEast1);
        assert_eq!(m.region_of(PartyId(4)), Region::AustraliaSoutheast1);
        assert_eq!(m.region_of(PartyId(5)), Region::UsEast1);
        assert_eq!(m.n(), 12);
    }

    #[test]
    fn one_way_is_half_rtt() {
        let m = LatencyMatrix::evenly_distributed(10);
        // Node 0 (us-east1) → node 2 (europe-north1): RTT 114.75 ms.
        let d = m.one_way(PartyId(0), PartyId(2));
        assert_eq!(d, Micros(57_375));
        // RTT recombines to the table value within rounding.
        let rtt = m.rtt(PartyId(0), PartyId(2));
        let table = Micros(
            ((114.75f64 / 2.0 * 1000.0).round() as u64)
                + ((115.40f64 / 2.0 * 1000.0).round() as u64),
        );
        assert_eq!(rtt, table);
    }

    #[test]
    fn intra_region_is_sub_millisecond() {
        let m = LatencyMatrix::evenly_distributed(10);
        // Nodes 0 and 5 are both in us-east1: RTT 0.75 ms.
        assert!(m.rtt(PartyId(0), PartyId(5)) < Micros(1_000));
    }

    #[test]
    fn farthest_pair_matches_table() {
        let m = LatencyMatrix::evenly_distributed(10);
        // eu-north (node 2) → au-southeast (node 4): RTT 295.13 ms.
        assert_eq!(m.one_way(PartyId(2), PartyId(4)), Micros(147_565));
    }

    #[test]
    fn single_region_is_flat() {
        let m = LatencyMatrix::single_region(6);
        for a in 0..6u32 {
            for b in 0..6u32 {
                assert_eq!(m.one_way(PartyId(a), PartyId(b)), Micros(375));
            }
        }
    }
}
