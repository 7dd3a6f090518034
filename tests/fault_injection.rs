//! Fault injection across the stack: crash faults up to `f`, pre-GST
//! asynchrony, and link partitions — the paper's partial-synchrony model
//! exercised end to end. Every run on a real WAL, and the epoch rotation,
//! also has its merged trace judged by `clanbft-inspect check` in process.

mod common;

use clanbft_adversary::Attack;
use clanbft_inspect::alert_report;
use clanbft_monitor::{AlertKind, Detector, HealthMonitor, MonitorConfig, Verdict};
use clanbft_sim::tribe::elect_clan;
use clanbft_sim::{build_tribe, TribeSpec};
use clanbft_simnet::net::Partition;
use clanbft_telemetry::{counters, Event};
use clanbft_types::{Encode, Micros, PartyId, Round, VertexRef};
use common::run_judged;

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
    let run = run_judged(spec, Micros::from_secs(300));
    let (built, recorder) = (&run.built, &run.recorder);
    // n = 4 pauses commits while a member is down, so the outage registers
    // as round skew rather than a commit stall.
    assert_fired_and_cleared(&monitor, Detector::RoundSkew, PartyId(2), "follower");
    assert!(
        recorder.counter(counters::WAL_APPENDS) > 0,
        "nothing logged"
    );
    assert!(
        recorder.counter(counters::STATE_TRANSFER_REQUESTS) > 0,
        "the restart never asked its peers for state"
    );
    let all: Vec<PartyId> = (0..4u32).map(PartyId).collect();
    assert_seq_agreement(built, &all);
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
    let built = run_judged(spec, Micros::from_secs(300)).built;
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
    let built = run_judged(spec, Micros::from_secs(300)).built;
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
    spec.crashes = vec![(PartyId(3), Micros::from_millis(800))];
    spec.restarts = vec![(PartyId(3), Micros::from_secs(20))];
    let built = run_judged(spec, Micros::from_secs(600)).built;
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
    // Single clan {0,1,2} in a 7-party tribe with epoch rotation on, run in
    // memory (the default) and again with every party on a WAL. Party 2
    // crashes for good; at the next epoch whose decision boundary it has
    // fallen more than four rounds behind, every honest party rotates it
    // out for an outsider — deterministically, without stopping commits.
    let dir = scratch("rotation");
    let clan: Vec<PartyId> = [0u32, 1, 2].map(PartyId).to_vec();
    for (on, storage_root) in [("in memory", None), ("on a WAL", Some(dir.clone()))] {
        let mut spec = TribeSpec::new(7);
        spec.clans = Some(vec![clan.clone()]);
        spec.storage_root = storage_root;
        spec.txs_per_proposal = 20;
        spec.max_round = Some(40);
        spec.timeout = Micros::from_millis(1_200);
        spec.epoch_length = Some(8);
        spec.crashes = vec![(PartyId(2), Micros::from_millis(1_000))];
        let run = run_judged(spec, Micros::from_secs(600));
        let built = &run.built;
        assert_agreement(built);
        assert!(
            run.recorder.counter(counters::ELECTION_EPOCH_ROTATIONS) > 0,
            "{on}: no rotation counted"
        );
        assert!(
            run.trace
                .events
                .iter()
                .any(|s| matches!(s.event, Event::EpochRotated { .. })),
            "{on}: the trace carries no epoch_rotated event"
        );
        // Every honest party decided the same epochs, and some epoch seated
        // a replacement for party 2.
        let reference = built.sim.node(PartyId(0)).epoch_decisions().to_vec();
        assert!(
            !reference.is_empty(),
            "{on}: epoch boundaries must have been decided"
        );
        for &p in &built.honest {
            let decisions = built.sim.node(p).epoch_decisions();
            let shared = decisions.len().min(reference.len());
            assert_eq!(
                &decisions[..shared],
                &reference[..shared],
                "{on}: {p} decided different epochs"
            );
        }
        let rotated = reference
            .iter()
            .find(|e| !e.clans[0].contains(&2))
            .unwrap_or_else(|| panic!("{on}: party 2 never rotated out: {reference:?}"));
        assert_eq!(rotated.clans[0].len(), 3, "{on}: the clan never shrinks");
        // Commits continued past the rotation boundary.
        for &p in &built.honest {
            let node = built.sim.node(p);
            assert!(
                node.last_committed()
                    .is_some_and(|lc| lc.0 > rotated.from_round.0),
                "{on}: {p} stopped committing at the rotation boundary"
            );
        }
        // The newly seated member proposes non-empty blocks after its seat
        // becomes effective.
        let seated: Vec<u32> = rotated.clans[0]
            .iter()
            .copied()
            .filter(|m| !clan.contains(&PartyId(*m)))
            .collect();
        assert!(!seated.is_empty(), "{on}: someone must have been seated");
        let node0 = built.sim.node(PartyId(0));
        let new_member_txs: u64 = node0
            .committed_log
            .iter()
            .filter(|c| c.vertex.round > rotated.from_round && seated.contains(&c.vertex.source.0))
            .map(|c| c.block_tx_count)
            .sum();
        assert!(
            new_member_txs > 0,
            "{on}: seated member {seated:?} never proposed transactions past round {}",
            rotated.from_round.0
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// What a restart must give a node back, read off one incarnation: its
/// whole checkpointable state, and the parts of it a divergence is easiest
/// to read from.
#[derive(Debug, PartialEq)]
struct Durable {
    /// The commit frontier: the sequence number its next commit gets.
    frontier: u64,
    last_committed: Option<Round>,
    epochs: Vec<clanbft_storage::EpochEntry>,
    evidence: Vec<clanbft_types::Evidence>,
    round: Round,
    /// Digest of the encoded `SailfishNode::snapshot`: the DAG with its
    /// horizon, pending vertices and ordered marks, the vote sets, the
    /// cursors and the last proposal.
    snapshot: clanbft_crypto::Digest,
}

impl Durable {
    fn of(node: &clanbft_consensus::SailfishNode) -> Durable {
        Durable {
            frontier: node.commit_seq_base() + node.committed_log.len() as u64,
            last_committed: node.last_committed(),
            epochs: node.epoch_decisions().to_vec(),
            evidence: node.evidence().to_vec(),
            round: node.round(),
            snapshot: clanbft_crypto::Digest::of(&node.snapshot().to_bytes()),
        }
    }
}

/// Steps `built`, run up to `p`'s crash, through `p`'s restart, and checks
/// that the node rebuilt from its checkpoint and WAL holds what the crashed
/// incarnation held, before it handles a message. Returns that state.
fn assert_restart_replays(built: &mut clanbft_sim::BuiltTribe, p: PartyId) -> Durable {
    assert!(!built.sim.node(p).recovered(), "{p} already restarted");
    let frozen = Durable::of(built.sim.node(p));
    while !built.sim.node(p).recovered() {
        assert!(built.sim.step(), "{p} never restarted");
    }
    assert_eq!(
        Durable::of(built.sim.node(p)),
        frozen,
        "{p}: replay diverged"
    );
    frozen
}

#[test]
fn replay_rebuilds_the_state_the_node_crashed_with() {
    // Five crashes, each compared with the incarnation that crashed: the
    // WAL records commit decisions only, and replay re-runs the commit rule
    // and garbage collection and derives the sequence numbers and the
    // epoch decisions from them.
    let dir = scratch("replay");

    // The follower of `restarted_follower_recovers_from_wal`: WAL only.
    let mut follower = TribeSpec::new(4);
    follower.storage_root = Some(dir.join("follower"));
    follower.txs_per_proposal = 40;
    follower.max_round = Some(14);
    follower.timeout = Micros::from_millis(1_200);
    follower.crashes = vec![(PartyId(2), Micros::from_millis(900))];
    follower.restarts = vec![(PartyId(2), Micros::from_millis(2_600))];
    let mut built = build_tribe(&follower);
    built.sim.run_until(Micros::from_millis(900));
    let frozen = assert_restart_replays(&mut built, PartyId(2));
    assert!(
        frozen.frontier > 0,
        "the follower crashed before committing"
    );

    // A clan member whose WAL continues a checkpoint.
    let (telemetry, recorder) = clanbft_telemetry::Telemetry::mem();
    let mut member = TribeSpec::new(10);
    member.clans = Some(vec![[0u32, 2, 4, 6, 8].map(PartyId).to_vec()]);
    member.storage_root = Some(dir.join("member"));
    member.txs_per_proposal = 30;
    member.max_round = Some(24);
    member.timeout = Micros::from_millis(1_500);
    member.crashes = vec![(PartyId(4), Micros::from_millis(3_000))];
    member.restarts = vec![(PartyId(4), Micros::from_millis(5_500))];
    member.telemetry = telemetry;
    let mut built = build_tribe(&member);
    built.sim.run_until(Micros::from_millis(3_000));
    assert!(
        recorder.counter(counters::CHECKPOINT_WRITTEN) > 0,
        "no checkpoint before the crash"
    );
    assert_restart_replays(&mut built, PartyId(4));

    // The rotation of `epoch_rotation_replaces_crashed_clan_member` on a
    // WAL. Outsider p4 crashes after the decision that seats a replacement
    // for p2 and before a checkpoint carries it: only its WAL holds the
    // commits that decision was derived from.
    let mut rotation = TribeSpec::new(7);
    rotation.clans = Some(vec![[0u32, 1, 2].map(PartyId).to_vec()]);
    rotation.storage_root = Some(dir.join("rotation"));
    rotation.txs_per_proposal = 20;
    rotation.max_round = Some(40);
    rotation.timeout = Micros::from_millis(1_200);
    rotation.epoch_length = Some(8);
    rotation.crashes = vec![
        (PartyId(2), Micros::from_millis(1_000)),
        (PartyId(4), Micros::from_millis(3_500)),
    ];
    rotation.restarts = vec![(PartyId(4), Micros::from_millis(5_000))];
    let mut built = build_tribe(&rotation);
    built.sim.run_until(Micros::from_millis(3_500));
    let (_, on_disk) = clanbft_storage::NodeStorage::open(
        &dir.join("rotation/node-4"),
        false,
        clanbft_telemetry::Telemetry::null(),
    )
    .expect("p4's storage");
    let checkpointed = on_disk.checkpoint.map_or(0, |cp| cp.epochs.len());
    let frozen = assert_restart_replays(&mut built, PartyId(4));
    assert!(
        frozen.epochs[checkpointed..]
            .iter()
            .any(|e| !e.clans[0].contains(&2)),
        "p4's WAL holds no rotation of p2: {frozen:?}"
    );
    built.sim.run_until(Micros::from_secs(600));
    let reference = built.sim.node(PartyId(0)).epoch_decisions();
    let rejoined = built.sim.node(PartyId(4)).epoch_decisions();
    assert!(
        rejoined.len() > frozen.epochs.len(),
        "p4 decided no epoch after its restart"
    );
    assert_eq!(rejoined, reference, "p4 and p0 decided different epochs");

    // Garbage collection at depth 4 with execution on: the horizon is
    // `last_committed − 4` whatever blocks are still downloading, and it
    // rises inside p2's WAL suffix, past the one its checkpoint holds.
    let mut gc = TribeSpec::new(4);
    gc.storage_root = Some(dir.join("gc"));
    gc.txs_per_proposal = 40;
    gc.max_round = Some(60);
    gc.timeout = Micros::from_millis(1_200);
    gc.gc_depth = Some(4);
    gc.execute = true;
    gc.crashes = vec![(PartyId(2), Micros::from_millis(2_500))];
    gc.restarts = vec![(PartyId(2), Micros::from_secs(4))];
    let mut built = build_tribe(&gc);
    built.sim.run_until(Micros::from_millis(2_500));
    let (_, on_disk) = clanbft_storage::NodeStorage::open(
        &dir.join("gc/node-2"),
        false,
        clanbft_telemetry::Telemetry::null(),
    )
    .expect("p2's storage");
    let checkpointed = on_disk.checkpoint.expect("a checkpoint before the crash");
    let crashed = built.sim.node(PartyId(2)).snapshot().horizon;
    assert!(
        checkpointed.horizon < crashed,
        "no collection in p2's WAL suffix: {:?} / {crashed:?}",
        checkpointed.horizon
    );
    let frozen = assert_restart_replays(&mut built, PartyId(2));

    // And a second crash once the restart adopted what the tribe committed
    // meanwhile: a node rebuilt from p2's disk holds what p2 holds.
    built.sim.run_until(Micros::from_secs(5));
    let rejoined = built.sim.node(PartyId(2));
    assert!(
        rejoined.commit_seq_base() == frozen.frontier && !rejoined.committed_log.is_empty(),
        "p2 adopted nothing after its restart"
    );
    let rebuilt = build_tribe(&gc);
    assert_eq!(
        Durable::of(rebuilt.sim.node(PartyId(2))),
        Durable::of(rejoined),
        "p2: replay after the adoption diverged"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn withholding_and_a_restart_alert_live_and_offline_then_clear() {
    // Single clan of 4 in a 7-party tribe on a WAL: clan member p1 (the
    // first a victim probes) withholds from its clan peer p2, and outsider
    // p6 crashes at 1 s and restarts at 3.6 s — long enough behind a
    // committing quorum to trip the stall watchdog. The short pull deadline
    // makes p2's probes time out and rotate densely enough to read as a
    // retry storm.
    let dir = scratch("withhold-restart");
    let mut spec = TribeSpec::new(7);
    spec.clans = Some(vec![elect_clan(7, 4, 42)]);
    spec.storage_root = Some(dir.clone());
    spec.txs_per_proposal = 50;
    spec.max_round = Some(14);
    spec.timeout = Micros::from_millis(1_200);
    spec.pull_retry = Micros::from_millis(20);
    spec.seed = 42;
    spec.byzantine = vec![(
        PartyId(1),
        Attack::Withhold {
            victims: vec![PartyId(2)],
        },
    )];
    spec.crashes = vec![(PartyId(6), Micros::from_millis(1_000))];
    spec.restarts = vec![(PartyId(6), Micros::from_millis(3_600))];
    let monitor = disk_blind_monitor();
    spec.monitor = Some(monitor.clone());
    let trace = run_judged(spec, Micros::from_secs(120)).trace;
    let label = "withhold+restart";
    assert_fired_and_cleared(&monitor, Detector::PullRetryStorm, PartyId(2), label);
    assert_fired_and_cleared(&monitor, Detector::CommitStall, PartyId(6), label);
    // The offline replay of the recorded trace reaches the same shape.
    let report = alert_report(&trace);
    for want in ["pull_retry_storm", "commit_stall", "verdict: healthy"] {
        assert!(
            report.contains(want),
            "offline replay lacks {want:?}:\n{report}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
