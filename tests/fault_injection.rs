//! Fault injection across the stack: crash faults up to `f`, pre-GST
//! asynchrony, and link partitions — the paper's partial-synchrony model
//! exercised end to end.

use clanbft_monitor::{AlertKind, Detector, HealthMonitor, MonitorConfig, Verdict};
use clanbft_sim::{build_tribe, TribeSpec};
use clanbft_simnet::net::Partition;
use clanbft_types::{Micros, PartyId, Round, VertexRef};

fn order_of(node: &clanbft_consensus::SailfishNode) -> Vec<VertexRef> {
    node.committed_log.iter().map(|c| c.vertex).collect()
}

fn assert_agreement(built: &clanbft_sim::BuiltTribe) {
    let longest = built
        .honest
        .iter()
        .map(|&p| order_of(built.sim.node(p)))
        .max_by_key(Vec::len)
        .expect("honest nodes");
    for &p in &built.honest {
        let o = order_of(built.sim.node(p));
        assert_eq!(&longest[..o.len()], o.as_slice(), "divergence at {p}");
    }
}

#[test]
fn tolerates_f_crashes_from_start() {
    // n = 7 tolerates f = 2 crashes. Crash two parties (including one that
    // leads early rounds) before the run starts.
    let mut spec = TribeSpec::new(7);
    spec.crashes = vec![(PartyId(0), Micros::ZERO), (PartyId(3), Micros::ZERO)];
    spec.txs_per_proposal = 40;
    spec.max_round = Some(8);
    spec.timeout = Micros::from_millis(1_200);
    let mut built = build_tribe(&spec);
    built.sim.run_until(Micros::from_secs(300));
    assert_agreement(&built);
    for &p in &built.honest {
        let node = built.sim.node(p);
        assert!(node.round() >= Round(8), "{p} stuck at {}", node.round());
        assert!(node.committed_txs() > 0, "{p} committed nothing");
        // Crashed parties never contribute vertices.
        assert!(order_of(node)
            .iter()
            .all(|v| v.source != PartyId(0) && v.source != PartyId(3)));
    }
}

#[test]
fn staggered_crashes_preserve_agreement() {
    let mut spec = TribeSpec::new(7);
    spec.crashes = vec![
        (PartyId(1), Micros::from_millis(500)),
        (PartyId(5), Micros::from_millis(1_500)),
    ];
    spec.txs_per_proposal = 40;
    spec.max_round = Some(10);
    spec.timeout = Micros::from_millis(1_200);
    let mut built = build_tribe(&spec);
    built.sim.run_until(Micros::from_secs(300));
    assert_agreement(&built);
    for &p in &built.honest {
        assert!(built.sim.node(p).round() >= Round(10));
    }
}

#[test]
fn crashed_clan_members_do_not_block_single_clan() {
    // Clan of 5 in a 10-party tribe; crash 2 clan members (f_c = 2). The
    // protocol must keep committing: echo thresholds need f_c+1 = 3 clan
    // echoes and 3 honest clan members remain.
    let clan: Vec<PartyId> = [0u32, 2, 4, 6, 8].map(PartyId).to_vec();
    let mut spec = TribeSpec::new(10);
    spec.clans = Some(vec![clan.clone()]);
    spec.crashes = vec![(PartyId(2), Micros::ZERO), (PartyId(6), Micros::ZERO)];
    spec.txs_per_proposal = 40;
    spec.max_round = Some(8);
    spec.timeout = Micros::from_millis(1_500);
    let mut built = build_tribe(&spec);
    built.sim.run_until(Micros::from_secs(300));
    assert_agreement(&built);
    let node0 = built.sim.node(PartyId(0));
    assert!(
        node0.committed_txs() > 0,
        "clan crashes blocked all commits"
    );
}

#[test]
fn pre_gst_asynchrony_then_progress() {
    // Before GST (first 3 s) the adversary adds up to 1.5 s of delay per
    // message; afterwards the network stabilizes. Agreement must hold
    // throughout and the tribe must finish its rounds after GST.
    let mut spec = TribeSpec::new(7);
    spec.txs_per_proposal = 30;
    spec.max_round = Some(6);
    spec.timeout = Micros::from_millis(2_000);
    spec.gst = Micros::from_secs(3);
    spec.pre_gst_extra_max = Micros::from_millis(1_500);
    let mut built = build_tribe(&spec);
    built.sim.run_until(Micros::from_secs(300));
    assert_agreement(&built);
    for &p in &built.honest {
        let node = built.sim.node(p);
        assert!(node.round() >= Round(6), "{p} stuck at {}", node.round());
        assert!(node.committed_txs() > 0, "{p} committed nothing");
    }
}

#[test]
fn partition_heals_and_tribe_recovers() {
    // Cut party 0 off from everyone for the first 2.5 s, then heal (TCP
    // semantics: in-flight messages are delivered after healing). The tribe
    // makes progress without party 0 via timeouts when it leads, and party
    // 0 catches up to the same order after rejoining.
    let mut spec = TribeSpec::new(7);
    spec.txs_per_proposal = 30;
    spec.max_round = Some(8);
    spec.timeout = Micros::from_millis(1_200);
    spec.partitions = (1..7u32)
        .map(|other| Partition {
            a: PartyId(0),
            b: PartyId(other),
            from: Micros::ZERO,
            until: Micros::from_millis(2_500),
        })
        .collect();
    let mut built = build_tribe(&spec);
    built.sim.run_until(Micros::from_secs(300));
    assert_agreement(&built);
    let node0 = built.sim.node(PartyId(0));
    assert!(
        node0.round() >= Round(8),
        "partitioned node failed to catch up: {}",
        node0.round()
    );
    assert!(
        !node0.committed_log.is_empty(),
        "partitioned node never committed"
    );
}

#[test]
fn asynchrony_with_crashes_combined() {
    // The adversary's full partial-synchrony budget at once: pre-GST delays
    // plus f = 2 crashes on a 7-party tribe.
    let mut spec = TribeSpec::new(7);
    spec.crashes = vec![
        (PartyId(2), Micros::ZERO),
        (PartyId(4), Micros::from_secs(1)),
    ];
    spec.txs_per_proposal = 25;
    spec.max_round = Some(6);
    spec.timeout = Micros::from_millis(2_000);
    spec.gst = Micros::from_secs(2);
    spec.pre_gst_extra_max = Micros::from_millis(1_000);
    let mut built = build_tribe(&spec);
    built.sim.run_until(Micros::from_secs(600));
    assert_agreement(&built);
    for &p in &built.honest {
        assert!(
            built.sim.node(p).round() >= Round(6),
            "{p} stuck at {}",
            built.sim.node(p).round()
        );
    }
}

// --- crash/restart recovery matrix ---------------------------------------
//
// Every restarted party runs with a WAL + checkpoint directory; the matrix
// covers a single follower, a clan member, and f staggered restarts, in
// both WAL-only (short outage) and state-transfer (long outage, peers have
// GC'd) recovery modes. Assertions: agreement at every shared sequence
// number, liveness after rejoin, gap-free local order, and exactly-once
// client transactions from restarted proposers.

fn scratch(name: &str) -> std::path::PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "clanbft-recovery-{}-{n}-{name}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// `sequence → vertex` over a node's emitted order. Sequences are global
/// (a restarted node resumes at its durable frontier), so suffixes from
/// different incarnations align against everyone else's order.
fn seq_map(node: &clanbft_consensus::SailfishNode) -> std::collections::HashMap<u64, VertexRef> {
    node.committed_log
        .iter()
        .map(|c| (c.sequence, c.vertex))
        .collect()
}

/// Agreement including restarted parties: wherever two parties emitted the
/// same sequence number, they emitted the same vertex.
fn assert_seq_agreement(built: &clanbft_sim::BuiltTribe, parties: &[PartyId]) {
    let maps: Vec<_> = parties
        .iter()
        .map(|&p| (p, seq_map(built.sim.node(p))))
        .collect();
    for (i, (p, a)) in maps.iter().enumerate() {
        for (q, b) in maps.iter().skip(i + 1) {
            for (seq, v) in a {
                if let Some(w) = b.get(seq) {
                    assert_eq!(v, w, "{p} and {q} disagree at sequence {seq}");
                }
            }
        }
    }
}

/// A restarted node's emitted order is contiguous from its durable frontier.
fn assert_gap_free(node: &clanbft_consensus::SailfishNode, who: PartyId) {
    for (i, c) in node.committed_log.iter().enumerate() {
        assert_eq!(
            c.sequence,
            node.commit_seq_base() + i as u64,
            "{who}: commit sequence gap at log index {i}"
        );
    }
}

/// Every tx sequence range proposed by `proposer` (as observed in
/// `observer`'s committed blocks) is disjoint: restarts never re-ack or
/// re-propose a client transaction range.
fn assert_exactly_once(observer: &clanbft_consensus::SailfishNode, proposer: PartyId) {
    let mut ranges: Vec<(u64, u64)> = observer
        .committed_log
        .iter()
        .filter(|c| c.vertex.source == proposer)
        .filter_map(|c| observer.held_block(&c.vertex))
        .flat_map(|b| b.batches.iter().map(|t| (t.first_seq, u64::from(t.count))))
        .collect();
    ranges.sort_unstable();
    for w in ranges.windows(2) {
        assert!(
            w[0].0 + w[0].1 <= w[1].0,
            "{proposer}: overlapping tx ranges {:?} / {:?}",
            w[0],
            w[1]
        );
    }
}

/// A monitor for runs on a real WAL: every detector at its default except
/// WAL degradation, which judges `fsync` wall time — the shared disk's
/// mood, not the protocol's (its thresholds have their own synthetic-latency
/// test in `monitor/src/detect.rs`).
fn disk_blind_monitor() -> HealthMonitor {
    HealthMonitor::new(MonitorConfig {
        wal_fsync_slow_us: u64::MAX,
        ..MonitorConfig::default()
    })
}

/// `detector` must fire for `party` while it is down and clear once the
/// restarted incarnation rejoins; the run must end healthy.
///
/// Which detector is "expected" depends on the outage shape: a small tribe
/// pauses commits entirely while a member is down (lag-based stall detection
/// judges a party by the *others'* progress, so it stays silent by design)
/// and the outage shows up as round skew instead; a tribe that keeps
/// committing through a long outage trips the commit-stall watchdog.
fn assert_fired_and_cleared(
    monitor: &HealthMonitor,
    detector: Detector,
    party: PartyId,
    label: &str,
) {
    monitor.settle();
    let alerts = monitor.alerts();
    let fire_at = alerts
        .iter()
        .find(|a| a.detector == detector && a.kind == AlertKind::Fire && a.party == party)
        .unwrap_or_else(|| {
            panic!(
                "{label}: {} never fired for {party}: {alerts:?}",
                detector.label()
            )
        })
        .at;
    let clear = alerts
        .iter()
        .find(|a| a.detector == detector && a.kind == AlertKind::Clear && a.party == party)
        .unwrap_or_else(|| {
            panic!(
                "{label}: {} never cleared for {party}: {alerts:?}",
                detector.label()
            )
        });
    assert!(
        clear.at > fire_at,
        "{label}: clear at {} precedes fire at {}",
        clear.at.0,
        fire_at.0
    );
    assert!(
        !monitor.with_bank(|b| b.is_active(detector, party)),
        "{label}: {} still active for {party} after recovery",
        detector.label()
    );
    let snap = monitor.assess();
    assert_eq!(
        snap.verdict,
        Verdict::Healthy,
        "{label}: cluster not healthy after recovery: {snap:?}"
    );
}

#[test]
fn restarted_follower_recovers_from_wal() {
    // n = 4, whole tribe. Party 2 crashes early and restarts 1.7 s later:
    // a short outage recovered mostly from its own checkpoint + WAL, with
    // the state transfer topping up what the tribe committed meanwhile.
    let dir = scratch("follower");
    let mut spec = TribeSpec::new(4);
    spec.storage_root = Some(dir.clone());
    spec.txs_per_proposal = 40;
    spec.max_round = Some(14);
    spec.timeout = Micros::from_millis(1_200);
    spec.gc_depth = None; // keep blocks: the exactly-once audit reads them
    spec.crashes = vec![(PartyId(2), Micros::from_millis(900))];
    spec.restarts = vec![(PartyId(2), Micros::from_millis(2_600))];
    let monitor = disk_blind_monitor();
    spec.monitor = Some(monitor.clone());
    let mut built = build_tribe(&spec);
    built.sim.run_until(Micros::from_secs(300));
    // n = 4 pauses commits while a member is down, so the outage registers
    // as round skew rather than a commit stall.
    assert_fired_and_cleared(&monitor, Detector::RoundSkew, PartyId(2), "follower");
    let all: Vec<PartyId> = (0..4u32).map(PartyId).collect();
    assert_seq_agreement(&built, &all);
    let node2 = built.sim.node(PartyId(2));
    assert!(node2.recovered(), "restart must rebuild from disk");
    assert!(
        node2.round() >= Round(14),
        "restarted node stuck at {}",
        node2.round()
    );
    assert!(
        !node2.committed_log.is_empty(),
        "restarted node never committed after rejoin"
    );
    assert_gap_free(node2, PartyId(2));
    assert_exactly_once(built.sim.node(PartyId(0)), PartyId(2));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn restarted_clan_member_rejoins_single_clan() {
    // Single clan {0,2,4,6,8} in a 10-party tribe; clan member 4 crashes
    // and restarts. Block dissemination keeps flowing (f_c+1 clan echoes
    // survive), and the restarted member resumes proposing blocks with its
    // durable tx cursor — no range is ever re-acked.
    let dir = scratch("clan-member");
    let clan: Vec<PartyId> = [0u32, 2, 4, 6, 8].map(PartyId).to_vec();
    let mut spec = TribeSpec::new(10);
    spec.clans = Some(vec![clan]);
    spec.storage_root = Some(dir.clone());
    spec.txs_per_proposal = 30;
    spec.max_round = Some(12);
    spec.timeout = Micros::from_millis(1_500);
    spec.gc_depth = None;
    spec.crashes = vec![(PartyId(4), Micros::from_millis(1_000))];
    spec.restarts = vec![(PartyId(4), Micros::from_millis(3_500))];
    let mut built = build_tribe(&spec);
    built.sim.run_until(Micros::from_secs(300));
    let all: Vec<PartyId> = (0..10u32).map(PartyId).collect();
    assert_seq_agreement(&built, &all);
    let node4 = built.sim.node(PartyId(4));
    assert!(node4.recovered());
    assert!(
        node4.round() >= Round(12),
        "restarted clan member stuck at {}",
        node4.round()
    );
    assert_gap_free(node4, PartyId(4));
    // Observed from a fellow clan member (it receives party 4's blocks).
    assert_exactly_once(built.sim.node(PartyId(0)), PartyId(4));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn f_staggered_restarts_preserve_agreement() {
    // n = 7 tolerates f = 2: two parties crash and restart at staggered
    // times (never more than f down at once, but the down-sets overlap
    // nobody — each recovery runs against a live quorum).
    let dir = scratch("staggered");
    let mut spec = TribeSpec::new(7);
    spec.storage_root = Some(dir.clone());
    spec.txs_per_proposal = 25;
    spec.max_round = Some(14);
    spec.timeout = Micros::from_millis(1_200);
    spec.crashes = vec![
        (PartyId(1), Micros::from_millis(700)),
        (PartyId(5), Micros::from_millis(2_900)),
    ];
    spec.restarts = vec![
        (PartyId(1), Micros::from_millis(2_400)),
        (PartyId(5), Micros::from_millis(5_200)),
    ];
    let monitor = disk_blind_monitor();
    spec.monitor = Some(monitor.clone());
    let mut built = build_tribe(&spec);
    built.sim.run_until(Micros::from_secs(300));
    // Party 1's short early outage registers as round skew; party 5 is down
    // long enough, against a committing quorum, to trip the stall watchdog.
    assert_fired_and_cleared(&monitor, Detector::RoundSkew, PartyId(1), "staggered");
    assert_fired_and_cleared(&monitor, Detector::CommitStall, PartyId(5), "staggered");
    let all: Vec<PartyId> = (0..7u32).map(PartyId).collect();
    assert_seq_agreement(&built, &all);
    for &p in &[PartyId(1), PartyId(5)] {
        let node = built.sim.node(p);
        assert!(node.recovered(), "{p} must rebuild from disk");
        assert!(node.round() >= Round(14), "{p} stuck at {}", node.round());
        assert_gap_free(node, p);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn long_outage_recovers_via_state_transfer() {
    // Aggressive GC (depth 4) and a long outage: by the time party 3 comes
    // back the tribe has pruned the rounds it missed, so WAL replay alone
    // cannot reconnect its DAG. The peer state transfer ships the committed
    // order suffix plus the live window, and the node fast-forwards.
    let dir = scratch("state-transfer");
    let mut spec = TribeSpec::new(4);
    spec.storage_root = Some(dir.clone());
    spec.txs_per_proposal = 20;
    spec.max_round = Some(30);
    spec.timeout = Micros::from_millis(1_000);
    spec.gc_depth = Some(4);
    spec.catchup_rounds = 8;
    spec.crashes = vec![(PartyId(3), Micros::from_millis(800))];
    spec.restarts = vec![(PartyId(3), Micros::from_secs(20))];
    let mut built = build_tribe(&spec);
    built.sim.run_until(Micros::from_secs(600));
    let all: Vec<PartyId> = (0..4u32).map(PartyId).collect();
    assert_seq_agreement(&built, &all);
    let node3 = built.sim.node(PartyId(3));
    assert!(node3.recovered());
    assert!(
        node3.round() >= Round(30),
        "rejoining node stuck at {}",
        node3.round()
    );
    assert_gap_free(node3, PartyId(3));
    assert!(
        !node3.committed_log.is_empty(),
        "state transfer must let the node commit again"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn epoch_rotation_replaces_crashed_clan_member() {
    // Single clan {0,1,2} in a 7-party tribe with epoch rotation on. Party
    // 2 crashes for good; at the next epoch whose decision boundary it has
    // fallen `rotation_miss_k` rounds behind, every honest party rotates it
    // out for an outsider — deterministically, without stopping commits.
    let clan: Vec<PartyId> = [0u32, 1, 2].map(PartyId).to_vec();
    let mut spec = TribeSpec::new(7);
    spec.clans = Some(vec![clan.clone()]);
    spec.txs_per_proposal = 20;
    spec.max_round = Some(40);
    spec.timeout = Micros::from_millis(1_200);
    spec.epoch_length = Some(8);
    spec.rotation_miss_k = 4;
    spec.crashes = vec![(PartyId(2), Micros::from_millis(1_000))];
    let mut built = build_tribe(&spec);
    built.sim.run_until(Micros::from_secs(600));
    assert_agreement(&built);
    // Every honest party decided the same epochs, and some epoch seated a
    // replacement for party 2.
    let reference = built.sim.node(PartyId(0)).epoch_decisions().to_vec();
    assert!(
        !reference.is_empty(),
        "epoch boundaries must have been decided"
    );
    for &p in &built.honest {
        let decisions = built.sim.node(p).epoch_decisions();
        let shared = decisions.len().min(reference.len());
        assert_eq!(
            &decisions[..shared],
            &reference[..shared],
            "{p} decided different epochs"
        );
    }
    let rotated = reference
        .iter()
        .find(|e| !e.clans[0].contains(&2))
        .unwrap_or_else(|| panic!("party 2 never rotated out: {reference:?}"));
    assert_eq!(rotated.clans[0].len(), 3, "the clan never shrinks");
    // Commits continued past the rotation boundary.
    for &p in &built.honest {
        let node = built.sim.node(p);
        assert!(
            node.last_committed()
                .is_some_and(|lc| lc.0 > rotated.from_round.0),
            "{p} stopped committing at the rotation boundary"
        );
    }
    // The newly seated member proposes non-empty blocks after its seat
    // becomes effective.
    let seated: Vec<u32> = rotated.clans[0]
        .iter()
        .copied()
        .filter(|m| !clan.contains(&PartyId(*m)))
        .collect();
    assert!(!seated.is_empty(), "someone must have been seated");
    let node0 = built.sim.node(PartyId(0));
    let new_member_txs: u64 = node0
        .committed_log
        .iter()
        .filter(|c| c.vertex.round > rotated.from_round && seated.contains(&c.vertex.source.0))
        .map(|c| c.block_tx_count)
        .sum();
    assert!(
        new_member_txs > 0,
        "seated member {seated:?} never proposed transactions past round {}",
        rotated.from_round.0
    );
}
