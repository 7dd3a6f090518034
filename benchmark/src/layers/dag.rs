//! `dag`: insertion, reachability and ordering on a fully connected
//! n = 50, 10-round DAG — the shape the two saturated workloads build.

use super::types::vertex;
use super::{ns_per_call, Env, Out};
use clanbft_crypto::Digest;
use clanbft_dag::{order, Dag};
use clanbft_types::{PartyId, Round, TribeParams, Vertex, VertexRef};
use std::hint::black_box;

const N: u32 = 50;
const ROUNDS: u64 = 10;

fn full_dag() -> Dag {
    let mut dag = Dag::new(TribeParams::new(N as usize));
    for s in 0..N {
        dag.insert(Vertex::genesis(PartyId(s), Digest::ZERO));
    }
    for r in 1..=ROUNDS {
        for s in 0..N {
            dag.insert(vertex(r, s, N));
        }
    }
    dag
}

pub fn run(env: &Env<'_>, out: &mut Out) {
    out.insert(
        "dag.insert_us_per_round",
        ns_per_call(5, env.iters(10), || {
            black_box(full_dag().live_count());
        }) / 1e3
            / ROUNDS as f64,
    );

    let dag = full_dag();
    let from = VertexRef {
        round: Round(ROUNDS),
        source: PartyId(0),
    };
    let to = VertexRef {
        round: Round(1),
        source: PartyId(N - 1),
    };
    out.insert(
        "dag.strong_path_us",
        ns_per_call(7, env.iters(100), || {
            black_box(dag.exists_strong_path(black_box(&from), black_box(&to)));
        }) / 1e3,
    );

    // Ordering consumes the DAG, so each sample orders a fresh one; only
    // the chain resolution and the causal sweep are timed.
    let samples: Vec<f64> = (0..env.iters(10).max(3))
        .map(|_| {
            let mut dag = full_dag();
            let t = std::time::Instant::now();
            let chain = order::commit_chain(&dag, None, from, |r| PartyId((r.0 % N as u64) as u32));
            black_box(order::causal_order(&mut dag, &chain));
            t.elapsed().as_nanos() as f64 / 1e3
        })
        .collect();
    out.insert("dag.causal_order_us", crate::stats::median(&samples));
}
