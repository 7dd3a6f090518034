//! The same consensus state machines on the live threaded transport: real
//! OS threads, real in-process message passing, wall-clock timers — proving
//! the protocol implementations are not simulator artifacts.

use clanbft_consensus::{NodeConfig, SailfishNode};
use clanbft_crypto::{Authenticator, Registry, Scheme};
use clanbft_monitor::{HealthMonitor, Severity, Verdict};
use clanbft_rbc::ClanTopology;
use clanbft_simnet::transport::run_live;
use clanbft_types::{Micros, PartyId, TribeParams, VertexRef};
use std::sync::Arc;
use std::time::Duration;

fn make_nodes(n: usize, clan: Option<Vec<u32>>, txs: u32, max_round: u64) -> Vec<SailfishNode> {
    make_monitored_nodes(n, clan, txs, max_round, None)
}

/// Like [`make_nodes`], but optionally tees each node's telemetry into a
/// [`HealthMonitor`] probe — the live-deployment wiring, where every party
/// streams into the shared monitor from its own OS thread.
fn make_monitored_nodes(
    n: usize,
    clan: Option<Vec<u32>>,
    txs: u32,
    max_round: u64,
    monitor: Option<&HealthMonitor>,
) -> Vec<SailfishNode> {
    let tribe = TribeParams::new(n);
    let topology = Arc::new(match clan {
        None => ClanTopology::whole_tribe(tribe),
        Some(c) => ClanTopology::single_clan(tribe, c.into_iter().map(PartyId).collect()),
    });
    let (registry, keypairs) = Registry::generate(Scheme::Keyed, n, 21);
    keypairs
        .into_iter()
        .enumerate()
        .map(|(i, kp)| {
            let me = PartyId(i as u32);
            let auth = Arc::new(Authenticator::new(i, kp, Arc::clone(&registry)));
            let mut cfg = NodeConfig::new(me, Arc::clone(&topology));
            cfg.txs_per_proposal = txs;
            cfg.max_round = Some(max_round);
            // Generous timeout: live-thread scheduling jitter must not trip
            // the no-vote path in a benign run.
            cfg.timeout = Micros::from_secs(10);
            if let Some(m) = monitor {
                cfg.telemetry = cfg.telemetry.tee_with(m.probe(me));
            }
            SailfishNode::new(cfg, auth)
        })
        .collect()
}

fn orders(nodes: &[SailfishNode]) -> Vec<Vec<VertexRef>> {
    nodes
        .iter()
        .map(|n| n.committed_log.iter().map(|c| c.vertex).collect())
        .collect()
}

#[test]
fn live_baseline_tribe_commits_and_agrees() {
    let nodes = make_nodes(4, None, 25, 6);
    let done = run_live(nodes, Duration::from_secs(5));
    let all_orders = orders(&done);
    let longest = all_orders.iter().max_by_key(|o| o.len()).unwrap().clone();
    assert!(!longest.is_empty(), "live tribe committed nothing");
    for (i, o) in all_orders.iter().enumerate() {
        assert_eq!(&longest[..o.len()], o.as_slice(), "node {i} diverged");
    }
    for (i, node) in done.iter().enumerate() {
        assert!(node.committed_txs() > 0, "node {i} committed no txs");
    }
}

#[test]
fn live_single_clan_tribe() {
    let clan = vec![0u32, 2, 4];
    let nodes = make_nodes(6, Some(clan.clone()), 25, 6);
    let done = run_live(nodes, Duration::from_secs(5));
    let all_orders = orders(&done);
    let longest = all_orders.iter().max_by_key(|o| o.len()).unwrap().clone();
    assert!(!longest.is_empty());
    for (i, o) in all_orders.iter().enumerate() {
        assert_eq!(&longest[..o.len()], o.as_slice(), "node {i} diverged");
    }
    // Transactions only ever come from clan members.
    for c in done[1].committed_log.iter() {
        if c.block_tx_count > 0 {
            assert!(clan.contains(&c.vertex.source.0));
        }
    }
}

#[test]
fn live_run_stays_healthy_under_the_monitor() {
    // Each node tees its telemetry into the shared monitor from its own OS
    // thread (events are wall-stamped against the transport's shared epoch,
    // so cross-party stamps are comparable). The benign run must end
    // healthy with no critical alert ever fired and nothing left active;
    // transient warnings from real scheduling jitter are tolerated, but
    // they must have cleared by run end.
    let monitor = HealthMonitor::default();
    monitor.expect_parties(4);
    let nodes = make_monitored_nodes(4, None, 25, 6, Some(&monitor));
    let done = run_live(nodes, Duration::from_secs(5));
    assert!(
        done.iter().all(|n| !n.committed_log.is_empty()),
        "live tribe committed nothing"
    );
    monitor.settle();
    let critical: Vec<_> = monitor
        .alerts()
        .into_iter()
        .filter(|a| a.severity == Severity::Critical)
        .collect();
    assert!(
        critical.is_empty(),
        "benign live run fired critical alerts: {critical:?}"
    );
    let snap = monitor.assess();
    assert_eq!(
        snap.verdict,
        Verdict::Healthy,
        "benign live run ended unhealthy: {snap:?}"
    );
    assert!(
        monitor.with_bank(|b| b.active().is_empty()),
        "alerts still active after a benign live run"
    );
}
