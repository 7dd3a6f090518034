//! `committee`: what set-up pays before `build_tribe` — a region-balanced
//! election at the workload's size, and the clan-size solve at the paper's
//! largest evaluated tribe (n = 150, failure probability 1e-6).

use super::{ns_per_call, Env, Out};
use clanbft_committee::min_clan_size;
use clanbft_sim::tribe::elect_clan;
use std::hint::black_box;

pub fn run(env: &Env<'_>, out: &mut Out) {
    let (n, nc) = (env.w.n, env.w.clan_size());
    let mut seed = env.seed;
    out.insert(
        "committee.elect_us",
        ns_per_call(5, env.iters(200), || {
            seed += 1;
            black_box(elect_clan(n, nc, black_box(seed)));
        }) / 1e3,
    );
    out.insert(
        "committee.clan_size_solve_ms",
        ns_per_call(3, 1, || {
            let size = min_clan_size(black_box(150), 49, 1e-6);
            assert!(black_box(size).is_some(), "f < n/3 is always solvable");
        }) / 1e6,
    );
}
