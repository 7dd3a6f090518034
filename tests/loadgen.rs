//! Load-generation integration: closed-loop and open-loop client workloads
//! driven through the real mempool → batch sizer → proposal → commit path.
//!
//! The headline invariant is *exactly-once*: every transaction a proposer's
//! mempool admits is pulled into exactly one proposal, and the union of that
//! proposer's committed blocks carries each proposer-assigned sequence
//! number exactly once with no gaps. The companion invariants are bounded
//! memory under overload (backpressure rejects, the queue never grows past
//! capacity) and the feedback sizer visibly adapting batch sizes to offered
//! load.

mod common;

use clanbft_mempool::{ClientId, ClientIngress, MempoolConfig, SizerConfig, WorkloadSpec};
use clanbft_sim::{build_tribe, collect_metrics, BuiltTribe, RunMetrics, TribeSpec};
use clanbft_telemetry::{counters, Telemetry};
use clanbft_types::{Micros, VertexRef};

/// Audits every honest proposer: mempool drained, nothing in flight, and
/// each pulled transaction committed exactly once (proposer sequence
/// numbers over committed blocks form exactly `0..pulled`). Returns the
/// total number of client transactions admitted across the tribe.
fn audit_exactly_once(built: &BuiltTribe) -> u64 {
    let mut total_admitted = 0;
    for &p in &built.honest {
        let node = built.sim.node(p);
        let ingress = node.ingress().expect("every baseline node proposes");
        let stats = ingress.pool().stats();
        assert_eq!(
            stats.rejected(),
            0,
            "{p}: benign closed loop rejects nothing"
        );
        assert_eq!(stats.admitted, stats.pulled, "{p}: every admission pulled");
        assert!(ingress.pool().is_empty(), "{p}: queue drained by run end");
        assert_eq!(
            ingress.in_flight_txs(),
            0,
            "{p}: no transaction stuck in flight"
        );

        let mut seen = vec![false; stats.pulled as usize];
        for c in &node.committed_log {
            if c.vertex.source != p {
                continue;
            }
            let block = node
                .held_block(&c.vertex)
                .expect("gc_depth: None keeps every own committed block");
            for b in &block.batches {
                assert_eq!(b.creator, p, "{p}: committed batch from wrong creator");
                for seq in b.first_seq..b.first_seq + u64::from(b.count) {
                    let i = usize::try_from(seq).expect("seq fits usize");
                    assert!(i < seen.len(), "{p}: committed seq {seq} was never pulled");
                    assert!(!seen[i], "{p}: seq {seq} committed twice");
                    seen[i] = true;
                }
            }
        }
        let missing = seen.iter().filter(|&&s| !s).count();
        assert_eq!(missing, 0, "{p}: {missing} pulled txs never committed");
        total_admitted += stats.admitted;
    }
    total_admitted
}

/// A 4-party closed loop that stops submitting at `stop_at_round`, well
/// before `max_round`, so the queue and in-flight set drain while rounds
/// (and therefore commits) are still advancing.
fn closed_loop_spec(
    clients: u64,
    outstanding: u32,
    seed: u64,
    (stop_at_round, max_round): (u64, u64),
) -> TribeSpec {
    let mut spec = TribeSpec::new(4);
    spec.workload = Some(WorkloadSpec::ClosedLoop {
        clients,
        outstanding,
        stop_at_round,
    });
    spec.gc_depth = None; // the audit reads every own committed block back
    spec.max_round = Some(max_round);
    spec.seed = seed;
    spec
}

#[test]
fn closed_loop_commits_every_admitted_tx_exactly_once() {
    // A light loop, and 13k clients per proposer for 16 rounds: more than
    // 100k client transactions through the same audit.
    for (clients, seed, rounds, at_least) in [
        // Each of the 4 proposers seeds clients × outstanding, then
        // resubmits on commit until the stop round — so at least the seed
        // wave landed.
        (50, 7, (8, 20), 4 * 50 * 2),
        (13_000, 42, (16, 32), 100_000),
    ] {
        let spec = closed_loop_spec(clients, 2, seed, rounds);
        let run = common::run_judged(spec, Micros::from_secs(600));
        let built = &run.built;

        let total = audit_exactly_once(built);
        assert!(total >= at_least, "{clients} clients: {total} admitted");
        assert_eq!(run.recorder.counter(counters::MEMPOOL_ADMITTED), total);

        // Client-side cross-check: the sum of per-client next-expected
        // sequence numbers is exactly the number of admissions (no client
        // skipped ahead).
        for &p in &built.honest {
            let ingress = built.sim.node(p).ingress().expect("proposer");
            let by_clients: u64 = (0..clients)
                .map(|c| ingress.pool().expected_seq(ClientId(c)))
                .sum();
            assert_eq!(by_clients, ingress.pool().stats().admitted, "{p}");
        }
    }
}

#[test]
fn open_loop_backpressure_bounds_the_pool_and_recovers() {
    let mut ing = ClientIngress::new(
        WorkloadSpec::OpenLoop {
            rate_tps: 100_000.0,
            clients: 2_000,
            zipf_s: 0.99,
            stop_at_round: u64::MAX,
        },
        512,
        MempoolConfig {
            capacity_txs: 500,
            capacity_bytes: 1 << 30,
            max_clients: 50,
        },
        SizerConfig::default(),
        9,
        Telemetry::default(),
    );

    // One second of arrivals at 100k tps against a 500-tx pool: admission
    // must stop at capacity and reject the rest, never grow the queue.
    ing.poll(Micros::ZERO, Micros::from_secs(1), 1);
    let stats = ing.pool().stats();
    assert_eq!(ing.pool().depth(), 500, "pool filled exactly to capacity");
    assert!(
        stats.rejected_full > 0,
        "overload rejects instead of growing"
    );
    assert!(stats.rejected_client_cap > 0, "client table stays bounded");
    assert!(ing.pool().tracked_clients() <= 50, "client cap enforced");

    // Drain, then offer more load: admissions resume (backpressure is
    // transient, not terminal) and rejected clients retry the same seq.
    let admitted_before = stats.admitted;
    while !ing.pool().is_empty() {
        ing.pull(Micros::from_secs(1), Micros::from_millis(100));
    }
    ing.poll(Micros::from_secs(1), Micros(1_100_000), 2);
    assert!(
        ing.pool().stats().admitted > admitted_before,
        "admissions resume once the pool drains"
    );
}

/// Runs an open-loop tribe at `rate_tps` and returns the run metrics plus
/// the final sizer cap of the first proposer.
fn open_loop_run(rate_tps: f64) -> (RunMetrics, u32) {
    let mut spec = TribeSpec::new(4);
    spec.workload = Some(WorkloadSpec::OpenLoop {
        rate_tps,
        clients: 500,
        zipf_s: 0.9,
        stop_at_round: u64::MAX,
    });
    spec.max_round = Some(12);
    spec.seed = 11;
    let mut built = build_tribe(&spec);
    built.sim.run_until(Micros::from_secs(240));
    let metrics = collect_metrics(&built.sim, &built.honest, 2, 10);
    let cap = built.honest[0];
    let cap = built
        .sim
        .node(cap)
        .ingress()
        .expect("proposer")
        .sizer()
        .cap();
    (metrics, cap)
}

#[test]
fn sizer_shrinks_batches_at_low_load_and_grows_them_at_high_load() {
    let (low, low_cap) = open_loop_run(40.0);
    let (high, high_cap) = open_loop_run(40_000.0);

    // Low offered load: shallow latency-biased batches, the sizer cap
    // decays from its initial value. High offered load: the cap opens up
    // and committed proposals carry order-of-magnitude deeper batches.
    assert!(low.committed_txs > 0, "low-rate run still commits");
    assert!(
        high.committed_txs > low.committed_txs,
        "more load, more txs"
    );
    assert!(
        low_cap <= SizerConfig::default().initial_batch,
        "low load must not grow the cap (cap {low_cap})"
    );
    assert!(
        high_cap >= 4 * low_cap,
        "high load opens the cap (low {low_cap}, high {high_cap})"
    );
    assert!(
        high.batch_p50 >= 10 * low.batch_p50.max(1),
        "batch depth tracks load (low p50 {}, high p50 {})",
        low.batch_p50,
        high.batch_p50
    );
}

#[test]
fn same_seed_closed_loop_runs_are_identical() {
    let run = || {
        let spec = closed_loop_spec(30, 2, 21, (8, 20));
        let mut built = build_tribe(&spec);
        built.sim.run_until(Micros::from_secs(240));
        let metrics = collect_metrics(&built.sim, &built.honest, 2, 18);
        let orders: Vec<Vec<VertexRef>> = built
            .honest
            .iter()
            .map(|&p| {
                built
                    .sim
                    .node(p)
                    .committed_log
                    .iter()
                    .map(|c| c.vertex)
                    .collect()
            })
            .collect();
        let admitted: Vec<u64> = built
            .honest
            .iter()
            .map(|&p| {
                built
                    .sim
                    .node(p)
                    .ingress()
                    .expect("proposer")
                    .pool()
                    .stats()
                    .admitted
            })
            .collect();
        (metrics.to_json(), orders, admitted)
    };
    assert_eq!(run(), run(), "same seed, same workload, same run");
}
