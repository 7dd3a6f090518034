//! `mempool`: admission and drain cost with 10 k Zipf-skewed clients over
//! the three lanes — admit everything, then pull in chunks the feedback
//! sizer chooses, as `multiclan12_open` does every round.

use super::{Env, Out};
use crate::stats::median;
use clanbft_crypto::ClanRng;
use clanbft_mempool::{
    BatchSizer, ClientId, Lane, Mempool, MempoolConfig, SizerConfig, Submission, ZipfGen,
};
use clanbft_telemetry::Telemetry;
use clanbft_types::Micros;
use std::hint::black_box;
use std::time::Instant;

const CLIENTS: u64 = 10_000;

pub fn run(env: &Env<'_>, out: &mut Out) {
    let txs = env.iters(100_000);
    let zipf = ZipfGen::new(CLIENTS, 0.99);
    let (mut admit, mut pull) = (Vec::new(), Vec::new());
    for rep in 0..5 {
        let mut rng = ClanRng::seed_from_u64(env.seed ^ rep);
        let mut next_seq = vec![0u64; CLIENTS as usize];
        // Submissions are drawn up front: the Zipf inversion and the PRNG
        // belong to the load generator, not to the pool being timed.
        let subs: Vec<Submission> = (0..txs)
            .map(|_| {
                let client = zipf.next(&mut rng);
                let seq = next_seq[client as usize];
                next_seq[client as usize] += 1;
                Submission {
                    client: ClientId(client),
                    seq,
                    tx_bytes: 512,
                    lane: match rng.gen_u64_below(10) {
                        0 => Lane::High,
                        9 => Lane::Low,
                        _ => Lane::Normal,
                    },
                }
            })
            .collect();
        let mut pool = Mempool::new(MempoolConfig::default(), Telemetry::null());
        let t = Instant::now();
        for (i, sub) in subs.into_iter().enumerate() {
            pool.admit(sub, Micros(i as u64))
                .expect("in-order submissions under capacity are admitted");
        }
        admit.push(t.elapsed().as_nanos() as f64 / txs as f64);

        let mut sizer = BatchSizer::new(SizerConfig::default());
        let t = Instant::now();
        let mut pulled = 0;
        while !pool.is_empty() {
            let want = sizer.choose(pool.depth(), Micros::from_millis(150));
            pulled += black_box(pool.pull(want as usize, Micros(txs as u64))).len();
        }
        pull.push(t.elapsed().as_nanos() as f64 / txs as f64);
        assert_eq!(pulled, txs, "mempool driver: everything admitted is pulled");
    }
    out.insert("mempool.admit_ns_per_tx", median(&admit));
    out.insert("mempool.pull_ns_per_tx", median(&pull));
}
