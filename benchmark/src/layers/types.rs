//! `types`: the codec paths every delivered vertex and block takes, on an
//! n = 50 vertex with 2f+1..n strong edges and a 16-batch block.

use super::{ns_per_call, Env, Out};
use clanbft_crypto::Digest;
use clanbft_types::{Block, Decode, Encode, Micros, PartyId, Round, TxBatch, Vertex, VertexRef};
use std::hint::black_box;

const N: u32 = 50;

/// A round-`round` vertex with `edges` strong edges into the round below.
pub fn vertex(round: u64, source: u32, edges: u32) -> Vertex {
    Vertex {
        round: Round(round),
        source: PartyId(source),
        block_digest: Digest::of(&[round as u8, source as u8]),
        block_bytes: 4_000 * 512,
        block_tx_count: 4_000,
        strong_edges: (0..edges)
            .map(|s| VertexRef {
                round: Round(round - 1),
                source: PartyId(s),
            })
            .collect(),
        weak_edges: Vec::new(),
        nvc: None,
        tc: None,
    }
}

pub fn run(env: &Env<'_>, out: &mut Out) {
    // One vertex per admissible strong-edge count, 2f+1 = 33 up to n = 50,
    // visited round-robin so the timing covers the whole range.
    let quorum = 2 * ((N - 1) / 3) + 1;
    let vertices: Vec<Vertex> = (quorum..=N).map(|e| vertex(5, e % N, e)).collect();
    let encoded: Vec<Vec<u8>> = vertices.iter().map(Encode::to_bytes).collect();
    let mut i = 0;
    let mut next = || {
        i = (i + 1) % vertices.len();
        i
    };
    out.insert(
        "types.vertex_encode_ns",
        ns_per_call(7, env.iters(5_000), || {
            black_box(vertices[next()].to_bytes());
        }),
    );
    out.insert(
        "types.vertex_decode_ns",
        ns_per_call(7, env.iters(5_000), || {
            black_box(Vertex::from_bytes(&encoded[next()]).expect("own encoding decodes"));
        }),
    );
    out.insert(
        "types.vertex_id_ns",
        ns_per_call(7, env.iters(5_000), || {
            black_box(vertices[next()].id());
        }),
    );
    // Wire size of the full-fan-in vertex every party sends every round.
    out.insert(
        "types.vertex_wire_bytes",
        vertices.last().expect("non-empty").encoded_len() as f64,
    );

    let block = Block::new(
        PartyId(0),
        Round(5),
        (0..16)
            .map(|b| TxBatch::synthetic(PartyId(0), b * 250, 250, 512, Micros(1_000 * b)))
            .collect(),
    );
    out.insert(
        "types.block_digest_ns",
        ns_per_call(7, env.iters(5_000), || {
            black_box(black_box(&block).digest());
        }),
    );
}
