//! `crypto`: the keyed signer and PRNG the simulated runs actually call,
//! plus SHA-256 and Schnorr as the baseline a later SHA-NI or batch-verify
//! change will need (`build_tribe` hard-codes `Scheme::Keyed`, so the last
//! three move no end-to-end metric today).

use super::{ns_per_call, Env, Out};
use clanbft_crypto::scalar::Scalar;
use clanbft_crypto::{schnorr, ClanRng, Digest, Registry, Scheme};
use std::hint::black_box;

pub fn run(env: &Env<'_>, out: &mut Out) {
    let (registry, keypairs) = Registry::generate(Scheme::Keyed, 4, env.seed);
    let msg = [0x5a_u8; 32];
    let sig = keypairs[0].sign(&msg);
    out.insert(
        "crypto.keyed_sign_ns",
        ns_per_call(7, env.iters(5_000), || {
            black_box(keypairs[0].sign(black_box(&msg)));
        }),
    );
    out.insert(
        "crypto.keyed_verify_ns",
        ns_per_call(7, env.iters(5_000), || {
            black_box(registry.verify(0, black_box(&msg), &sig));
        }),
    );

    let mut rng = ClanRng::seed_from_u64(env.seed);
    out.insert(
        "crypto.prng_u64_ns",
        ns_per_call(7, env.iters(20_000), || {
            black_box(rng.next_u64());
        }),
    );

    let mib = vec![0xa5_u8; 1 << 20];
    let ns = ns_per_call(5, env.iters(10), || {
        black_box(Digest::of(black_box(&mib)));
    });
    out.insert("crypto.sha256_mib_s", 1e9 / ns);

    let sk = Scalar::from_u64(0xdead_beef ^ env.seed);
    let pk = schnorr::public_key(&sk);
    let schnorr_sig = schnorr::sign(&sk, &pk, &msg);
    out.insert(
        "crypto.schnorr_sign_us",
        ns_per_call(5, env.iters(30), || {
            black_box(schnorr::sign(&sk, &pk, black_box(&msg)));
        }) / 1e3,
    );
    out.insert(
        "crypto.schnorr_verify_us",
        ns_per_call(5, env.iters(30), || {
            black_box(schnorr::verify(&pk, black_box(&msg), &schnorr_sig));
        }) / 1e3,
    );
}
