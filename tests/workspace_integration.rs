//! Cross-crate integration: committee election feeding consensus over the
//! simulator, with execution and client acceptance — the full pipeline of
//! the paper's system for all three protocol variants.

use clanbft_committee::hypergeom::{strict_dishonest_majority_prob, Tail};
use clanbft_committee::sizing::min_clan_size_tail;
use clanbft_consensus::execution::client_accepts;
use clanbft_sim::tribe::{elect_clan, partition_clans};
use clanbft_sim::{build_tribe, collect_metrics, ExperimentSpec, Proto, TribeSpec};
use clanbft_types::{Micros, PartyId, VertexRef};

fn order_of(node: &clanbft_consensus::SailfishNode) -> Vec<VertexRef> {
    node.committed_log.iter().map(|c| c.vertex).collect()
}

/// Runs a spec and asserts basic health: commits happened, orders agree.
fn run_and_check(mut spec: TribeSpec) -> clanbft_sim::BuiltTribe {
    spec.verify_sigs = true;
    let mut built = build_tribe(&spec);
    built.sim.run_until(Micros::from_secs(240));
    let longest = built
        .honest
        .iter()
        .map(|&p| order_of(built.sim.node(p)))
        .max_by_key(Vec::len)
        .expect("at least one honest node");
    assert!(!longest.is_empty(), "nothing committed");
    for &p in &built.honest {
        let o = order_of(built.sim.node(p));
        assert_eq!(&longest[..o.len()], o.as_slice(), "order mismatch at {p}");
    }
    built
}

#[test]
fn full_pipeline_baseline() {
    let mut spec = TribeSpec::new(7);
    spec.txs_per_proposal = 60;
    spec.max_round = Some(8);
    let built = run_and_check(spec);
    for &p in &built.honest {
        assert!(built.sim.node(p).committed_txs() > 0);
    }
}

#[test]
fn full_pipeline_single_clan_with_committee_sized_clan() {
    // Size the clan with the committee machinery itself (loose budget so a
    // 10-party tribe yields a proper subset), then run consensus over it.
    let n = 10u64;
    let f = (n - 1) / 3;
    let nc = min_clan_size_tail(n, f, 0.2, Tail::StrictDishonestMajority).expect("solvable");
    assert!(
        nc < n,
        "clan must be a strict subset for this test, got {nc}"
    );
    let clan = elect_clan(n as usize, nc as usize, 3);
    let mut spec = TribeSpec::new(n as usize);
    spec.clans = Some(vec![clan.clone()]);
    spec.txs_per_proposal = 60;
    spec.max_round = Some(8);
    spec.execute = true;
    let built = run_and_check(spec);

    // Only clan members carry transactions.
    let node0 = built.sim.node(PartyId(0));
    for c in &node0.committed_log {
        if c.block_tx_count > 0 {
            assert!(
                clan.contains(&c.vertex.source),
                "non-clan txs from {}",
                c.vertex.source
            );
        }
    }
    // The election really met its failure budget.
    assert!(strict_dishonest_majority_prob(n, f, nc) <= 0.2);

    // Nobody pulled, so once the run has drained no broadcast instance
    // keeps a cold record: delivery dropped each one.
    for &p in &built.honest {
        let rbc = built.sim.node(p).rbc_buffers();
        assert_eq!((rbc.pending_pulls, rbc.pull_records), (0, 0), "{p}");
        assert_eq!(rbc.cold_records, 0, "cold records at {p}");
    }

    // Client acceptance: f_c+1 consistent state roots from the clan.
    let reports: Vec<(usize, clanbft_crypto::Digest)> = clan
        .iter()
        .map(|&p| {
            let e = built.sim.node(p).executor.as_ref().expect("clan executes");
            (p.idx(), e.state_root())
        })
        .collect();
    let quorum = (clan.len() - 1) / 2 + 1;
    assert!(
        client_accepts(&reports, quorum).is_some(),
        "client could not assemble {quorum} consistent replies from {reports:?}"
    );
}

#[test]
fn full_pipeline_multi_clan() {
    let clans = partition_clans(9, 3, 5);
    let mut spec = TribeSpec::new(9);
    spec.clans = Some(clans.clone());
    spec.txs_per_proposal = 40;
    spec.max_round = Some(8);
    spec.execute = true;
    let built = run_and_check(spec);
    // Here some instances certify before the view a party is due arrives,
    // so some parties start a pull and others serve one: the cold records
    // that outlive the run are exactly those instances' pull records.
    let mut pulled_or_served = 0;
    for &p in &built.honest {
        let rbc = built.sim.node(p).rbc_buffers();
        assert_eq!(rbc.pending_pulls, 0, "{p}");
        assert_eq!(rbc.cold_records, rbc.pull_records, "cold records at {p}");
        pulled_or_served += rbc.pull_records;
    }
    assert!(pulled_or_served > 0, "the run pulled nothing");
    // Each clan's members agree on their own execution.
    for clan in &clans {
        let roots: Vec<_> = clan
            .iter()
            .map(|&p| built.sim.node(p).executor.as_ref().unwrap().state_root())
            .collect();
        assert!(
            roots.windows(2).all(|w| w[0] == w[1]),
            "clan diverged: {clan:?}"
        );
    }
    // Different clans execute different (disjoint) block sets, so their
    // roots differ.
    let r0 = built
        .sim
        .node(clans[0][0])
        .executor
        .as_ref()
        .unwrap()
        .state_root();
    let r1 = built
        .sim
        .node(clans[1][0])
        .executor
        .as_ref()
        .unwrap()
        .state_root();
    assert_ne!(r0, r1);
}

#[test]
fn experiment_api_compares_protocols() {
    // The experiment preset API end-to-end: at equal per-proposal load a
    // single-clan tribe moves far fewer bytes than the baseline.
    let mut base = ExperimentSpec::new(Proto::Sailfish, 10, 150);
    base.rounds = 8;
    base.warmup_rounds = 1;
    base.cooldown_rounds = 2;
    let mut clan = ExperimentSpec::new(Proto::SingleClan { clan_size: 5 }, 10, 150);
    clan.rounds = 8;
    clan.warmup_rounds = 1;
    clan.cooldown_rounds = 2;
    let mb = base.run();
    let mc = clan.run();
    assert!(mb.committed_txs > 0 && mc.committed_txs > 0);
    assert!(
        (mc.total_bytes as f64) < 0.6 * mb.total_bytes as f64,
        "single-clan bytes {} vs baseline {}",
        mc.total_bytes,
        mb.total_bytes
    );
}

#[test]
fn metrics_window_excludes_warmup() {
    let mut spec = TribeSpec::new(7);
    spec.txs_per_proposal = 50;
    spec.max_round = Some(10);
    let mut built = build_tribe(&spec);
    built.sim.run_until(Micros::from_secs(240));
    let all = collect_metrics(&built.sim, &built.honest, 0, 10);
    let windowed = collect_metrics(&built.sim, &built.honest, 3, 7);
    assert!(windowed.committed_txs < all.committed_txs);
    assert!(windowed.committed_txs > 0);
}
