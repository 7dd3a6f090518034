//! End-to-end adversarial matrix: every scripted [`Attack`] behaviour runs
//! at its fault threshold against each topology class, and each case asserts
//! the full robustness contract:
//!
//! 1. **Agreement** — honest committed logs are prefix-identical;
//! 2. **Liveness** — honest nodes keep committing through and past the
//!    attack window (the attacker misbehaves every round, so reaching
//!    `max_round` *is* surviving the window);
//! 3. **Detection** — at least one `rejected.*` counter tick or recorded
//!    [`Evidence`] proves the attack actually fired (no vacuous passes).
//! 4. **Alerting** — the online health monitor rides along on every run:
//!    evidence-producing attacks must fire the `evidence_spike` detector
//!    against the real culprits, and attacks the protocol absorbs locally
//!    (replay, mutated signatures, forged payloads) must leave the
//!    commit-stall watchdog silent — detector recall on what matters,
//!    precision on what doesn't.
//! 5. **Trace** — the run's merged trace passes every `clanbft-inspect
//!    check` invariant, evidence attributed to a configured attacker among
//!    them.

mod common;

use clanbft_adversary::Attack;
use clanbft_monitor::{Detector, HealthMonitor};
use clanbft_sim::tribe::partition_clans;
use clanbft_sim::{build_tribe, BuiltTribe, TribeSpec};
use clanbft_telemetry::{counters, Event, MemRecorder, RbcPhase};
use clanbft_types::{Evidence, Micros, PartyId, Round, VertexRef};
use std::sync::Arc;

fn order_of(node: &clanbft_consensus::SailfishNode) -> Vec<VertexRef> {
    node.committed_log.iter().map(|c| c.vertex).collect()
}

/// Honest committed logs must be prefix-identical.
fn assert_agreement(built: &BuiltTribe, label: &str) {
    let longest = built
        .honest
        .iter()
        .map(|&p| order_of(built.sim.node(p)))
        .max_by_key(Vec::len)
        .expect("honest nodes");
    for &p in &built.honest {
        let o = order_of(built.sim.node(p));
        assert_eq!(
            &longest[..o.len()],
            o.as_slice(),
            "[{label}] honest divergence at {p}"
        );
    }
}

/// Honest nodes must reach `min_round` and commit transactions — the attack
/// runs every round, so this is liveness through and past the attack window.
fn assert_liveness(built: &BuiltTribe, min_round: u64, label: &str) {
    for &p in &built.honest {
        let node = built.sim.node(p);
        assert!(
            node.round() >= Round(min_round),
            "[{label}] {p} stuck at {}",
            node.round()
        );
        assert!(node.committed_txs() > 0, "[{label}] {p} committed nothing");
    }
}

/// Runs `spec` with an in-memory telemetry recorder and the online health
/// monitor attached; the monitor is settled (windows expired) at run end,
/// and the recorded trace must pass the `clanbft-inspect check` gate.
fn run(mut spec: TribeSpec) -> (BuiltTribe, Arc<MemRecorder>, HealthMonitor) {
    let monitor = HealthMonitor::default();
    spec.monitor = Some(monitor.clone());
    let run = common::run_judged(spec, Micros::from_secs(300));
    monitor.settle();
    (run.built, run.recorder, monitor)
}

/// The monitor fired `detector` against at least one of `culprits`.
fn fired_against(monitor: &HealthMonitor, detector: Detector, culprits: &[PartyId]) -> bool {
    monitor.alerts().iter().any(|a| {
        a.detector == detector
            && a.kind == clanbft_monitor::AlertKind::Fire
            && culprits.contains(&a.party)
    })
}

/// No commit-stall fired for any honest party — an absorbed attack must not
/// look like a liveness incident.
fn assert_no_honest_stall(monitor: &HealthMonitor, built: &BuiltTribe, label: &str) {
    for a in monitor.alerts() {
        assert!(
            !(a.detector == Detector::CommitStall && built.honest.contains(&a.party)),
            "[{label}] spurious commit-stall against honest {}: {}",
            a.party,
            a.evidence
        );
    }
}

/// Baseline Sailfish tribe of 7 (f = 2) with the given attackers.
fn sailfish_spec(byzantine: Vec<(PartyId, Attack)>) -> TribeSpec {
    let mut spec = TribeSpec::new(7);
    spec.txs_per_proposal = 30;
    spec.max_round = Some(8);
    spec.timeout = Micros::from_millis(1_200);
    spec.byzantine = byzantine;
    spec
}

/// Evidence of the given kind held by any honest node against a culprit in
/// `culprits`.
fn honest_evidence(built: &BuiltTribe, kind: &str, culprits: &[PartyId]) -> usize {
    built
        .honest
        .iter()
        .flat_map(|&p| built.sim.node(p).evidence().iter())
        .filter(|ev| ev.kind() == kind && culprits.contains(&ev.culprit()))
        .count()
}

#[test]
fn equivocation_detected_at_threshold_sailfish() {
    // f = 2 equivocators: each sends valid-but-conflicting vertex/block
    // pairs to disjoint peer halves every round.
    let attackers = [PartyId(1), PartyId(4)];
    let spec = sailfish_spec(attackers.iter().map(|&p| (p, Attack::Equivocate)).collect());
    let (built, rec, monitor) = run(spec);

    assert_agreement(&built, "equivocate/sailfish");
    assert_liveness(&built, 8, "equivocate/sailfish");
    assert!(
        fired_against(&monitor, Detector::EvidenceSpike, &attackers),
        "evidence_spike never fired against an equivocator"
    );
    assert_no_honest_stall(&monitor, &built, "equivocate/sailfish");
    assert!(
        rec.counter(counters::EVIDENCE_RECORDED) >= 1,
        "equivocation left no evidence"
    );
    assert!(
        honest_evidence(&built, "equivocating_source", &attackers) >= 1,
        "no honest node holds equivocation evidence against the attackers"
    );
}

#[test]
fn equivocation_detected_inside_single_clan() {
    // Single clan of 5 in a 10-party tribe with f_c = 2 equivocating clan
    // members. The mixed-parity clan puts twins on both sides of the split,
    // so echo divergence is visible inside the clan itself.
    let clan: Vec<PartyId> = [0u32, 1, 2, 3, 4].map(PartyId).to_vec();
    let attackers = [PartyId(1), PartyId(3)];
    let mut spec = TribeSpec::new(10);
    spec.clans = Some(vec![clan]);
    spec.txs_per_proposal = 30;
    spec.max_round = Some(8);
    spec.timeout = Micros::from_millis(1_500);
    spec.byzantine = attackers.iter().map(|&p| (p, Attack::Equivocate)).collect();
    let (built, rec, monitor) = run(spec);

    assert_agreement(&built, "equivocate/single-clan");
    assert_liveness(&built, 8, "equivocate/single-clan");
    assert!(
        fired_against(&monitor, Detector::EvidenceSpike, &attackers),
        "evidence_spike never fired inside the clan"
    );
    assert!(
        rec.counter(counters::EVIDENCE_RECORDED) >= 1
            && honest_evidence(&built, "equivocating_source", &attackers) >= 1,
        "in-clan equivocation went undetected"
    );
}

#[test]
fn equivocation_detected_across_clans_multi_clan() {
    // Three clans of 4 over a 12-party tribe; one equivocator in each of
    // two different clans (within f_c = 1 per clan and f = 3 overall).
    let clans = partition_clans(12, 3, 9);
    let attackers = [clans[0][0], clans[1][0]];
    let mut spec = TribeSpec::new(12);
    spec.clans = Some(clans);
    spec.txs_per_proposal = 30;
    spec.max_round = Some(8);
    spec.timeout = Micros::from_millis(1_500);
    spec.byzantine = attackers.iter().map(|&p| (p, Attack::Equivocate)).collect();
    let (built, rec, monitor) = run(spec);

    assert_agreement(&built, "equivocate/multi-clan");
    assert_liveness(&built, 8, "equivocate/multi-clan");
    assert!(
        fired_against(&monitor, Detector::EvidenceSpike, &attackers),
        "evidence_spike never fired across clans"
    );
    assert!(
        rec.counter(counters::EVIDENCE_RECORDED) >= 1
            && honest_evidence(&built, "equivocating_source", &attackers) >= 1,
        "cross-clan equivocation went undetected"
    );
}

#[test]
fn digest_mismatch_rejected_at_threshold() {
    // f = 2 attackers ship full payloads whose block contradicts the
    // vertex's declared digest; receivers must refuse to echo them.
    let attackers = [PartyId(1), PartyId(4)];
    let spec = sailfish_spec(
        attackers
            .iter()
            .map(|&p| (p, Attack::DigestMismatch))
            .collect(),
    );
    let (built, rec, monitor) = run(spec);

    assert_agreement(&built, "digest-mismatch");
    assert_liveness(&built, 8, "digest-mismatch");
    // Forged payloads are rejected locally; the absorbed attack must not
    // read as a liveness incident.
    assert_no_honest_stall(&monitor, &built, "digest-mismatch");
    assert!(
        rec.counter(counters::REJECTED_BAD_PAYLOAD) >= 1,
        "forged payloads were not rejected"
    );
    // Nothing forged may enter any honest order: every committed vertex of
    // an attacker would require a *valid* payload, which the attacker never
    // sent — so no attacker vertex commits anywhere.
    for &p in &built.honest {
        assert!(
            order_of(built.sim.node(p))
                .iter()
                .all(|v| !attackers.contains(&v.source)),
            "a forged payload reached {p}'s committed order"
        );
    }
}

#[test]
fn misbound_vertices_are_refused_at_threshold() {
    // f = 2 attackers broadcast, in their own instances, well-formed
    // vertices that name party 3's slot (even rounds) or a round 2^40
    // ahead (odd rounds). Nothing binds them to the instance that carried
    // them but the check where the view is accepted: without it the first
    // kind competes with party 3's own vertex for its DAG slot and the
    // second sits in the pending buffer for good.
    let attackers = [PartyId(1), PartyId(4)];
    let victim = PartyId(3);
    let spec = sailfish_spec(
        attackers
            .iter()
            .map(|&p| (p, Attack::Misbind { victim }))
            .collect(),
    );
    let (built, rec, monitor) = run(spec);

    assert_agreement(&built, "misbind");
    assert_liveness(&built, 8, "misbind");
    assert_no_honest_stall(&monitor, &built, "misbind");
    assert!(
        rec.counter(counters::REJECTED_BAD_PAYLOAD) >= 1,
        "misbound payloads were not rejected"
    );
    assert!(
        honest_evidence(&built, "misbound_payload", &attackers) >= 1,
        "no honest node holds evidence against the attackers"
    );
    assert!(
        fired_against(&monitor, Detector::EvidenceSpike, &attackers),
        "evidence_spike never fired against a misbinding source"
    );
    // Never echoed, so never certified, so nothing of the attackers' is
    // ordered; the victim's slots hold the victim's own (non-empty) blocks.
    for &p in &built.honest {
        for c in &built.sim.node(p).committed_log {
            assert!(
                !attackers.contains(&c.vertex.source),
                "{p} ordered {:?}",
                c.vertex
            );
            assert!(
                c.vertex.source != victim || c.block_tx_count > 0,
                "{p} ordered a vertex in {victim}'s slot that is not {victim}'s"
            );
        }
    }
    // And no honest DAG ever buffered a vertex of a far round.
    let far = clanbft_adversary::attacks::MISBIND_ROUNDS_AHEAD;
    let buffered_far = rec.events().iter().any(|s| {
        built.honest.contains(&s.party)
            && matches!(s.event, Event::DagBuffered { round, .. } if round.0 >= far)
    });
    assert!(!buffered_far, "a far-round vertex reached a pending buffer");
}

#[test]
fn withholding_recovered_via_pull_path() {
    // Party 1 withholds its payloads from two victims and ignores every
    // pull request; the victims must still deliver 1's certified vertices
    // through the pull/rotation path and commit them.
    let victims = [PartyId(0), PartyId(2)];
    let mut spec = sailfish_spec(vec![(
        PartyId(1),
        Attack::Withhold {
            victims: victims.to_vec(),
        },
    )]);
    // Tighten the pull deadline so the victims' retries cluster densely
    // enough for the storm detector (which fires on 6 retries in 1 s).
    spec.pull_retry = Micros::from_millis(100);
    let (built, rec, monitor) = run(spec);

    assert_agreement(&built, "withhold");
    assert_liveness(&built, 8, "withhold");
    // The storm detector must fire against a victim while the withholder
    // starves it, and clear once the pull path recovers the payloads —
    // leaving the final verdict healthy.
    assert!(
        fired_against(&monitor, Detector::PullRetryStorm, &victims),
        "pull_retry_storm never fired against a victim: {}",
        monitor.alerts_ndjson()
    );
    for &v in &victims {
        assert!(
            !monitor.with_bank(|b| b.is_active(Detector::PullRetryStorm, v)),
            "storm never cleared for victim {v}"
        );
    }
    assert_eq!(
        monitor.assess().verdict,
        clanbft_monitor::Verdict::Healthy,
        "recovered withholding left a degraded verdict"
    );
    // The attack fired: somebody had to fall back to a pull.
    let pulls = rec
        .events()
        .iter()
        .filter(|s| {
            matches!(
                s.event,
                Event::Rbc {
                    phase: RbcPhase::PullStarted,
                    ..
                }
            )
        })
        .count();
    assert!(pulls >= 1, "withholding never forced a pull");
    // And it was defeated: the victims committed the withheld source's
    // vertices anyway.
    for &v in &victims {
        assert!(
            order_of(built.sim.node(v))
                .iter()
                .any(|vx| vx.source == PartyId(1)),
            "victim {v} never committed a withheld vertex"
        );
    }
}

#[test]
fn replay_absorbed_as_duplicates() {
    // Same spec and seed, with and without f = 2 replaying attackers:
    // duplicates strictly grow, commits stay identical on honest nodes.
    let attackers = [PartyId(1), PartyId(4)];
    let (benign_built, benign_rec, benign_monitor) = run(sailfish_spec(Vec::new()));
    let (built, rec, monitor) = run(sailfish_spec(
        attackers.iter().map(|&p| (p, Attack::Replay)).collect(),
    ));

    assert_agreement(&built, "replay");
    assert_liveness(&built, 8, "replay");
    // The benign twin is alert-free by construction; the replayed traffic
    // is absorbed as duplicates and must not alarm either.
    assert!(
        benign_monitor.alerts().is_empty(),
        "benign baseline alerted: {}",
        benign_monitor.alerts_ndjson()
    );
    assert_no_honest_stall(&monitor, &built, "replay");
    assert_liveness(&benign_built, 8, "replay/benign-baseline");
    assert!(
        rec.counter(counters::REJECTED_DUPLICATE)
            > benign_rec.counter(counters::REJECTED_DUPLICATE),
        "replayed traffic produced no extra duplicate rejections \
         (attack {} vs benign {})",
        rec.counter(counters::REJECTED_DUPLICATE),
        benign_rec.counter(counters::REJECTED_DUPLICATE),
    );
}

#[test]
fn mutated_signatures_rejected_at_threshold() {
    // f = 2 attackers flip signature bytes on every echo, vote and timeout.
    // With real verification on, every one of those is discarded.
    let attackers = [PartyId(1), PartyId(4)];
    let mut spec = sailfish_spec(attackers.iter().map(|&p| (p, Attack::MutateSig)).collect());
    spec.verify_sigs = true;
    let (built, rec, monitor) = run(spec);

    assert_agreement(&built, "mutate-sig");
    assert_liveness(&built, 8, "mutate-sig");
    assert_no_honest_stall(&monitor, &built, "mutate-sig");
    assert!(
        rec.counter(counters::REJECTED_BAD_SIG) >= 1,
        "mutated signatures were not rejected"
    );
}

#[test]
fn double_votes_yield_evidence() {
    // f = 2 attackers cast a second, conflicting leader vote every round,
    // each validly signed. The leader must count at most one and record
    // DoubleVote evidence; with real verification on, the evidence is not
    // an artefact of unchecked signatures.
    let attackers = [PartyId(1), PartyId(4)];
    let mut spec = sailfish_spec(attackers.iter().map(|&p| (p, Attack::DoubleVote)).collect());
    spec.verify_sigs = true;
    let (built, rec, monitor) = run(spec);

    assert_agreement(&built, "double-vote");
    assert_liveness(&built, 8, "double-vote");
    assert!(
        fired_against(&monitor, Detector::EvidenceSpike, &attackers),
        "evidence_spike never fired against a double-voter"
    );
    assert!(
        honest_evidence(&built, "double_vote", &attackers) >= 1,
        "conflicting votes left no DoubleVote evidence"
    );
    assert!(rec.counter(counters::EVIDENCE_RECORDED) >= 1);
    // Evidence also reaches the event stream for offline audit.
    assert!(
        rec.events().iter().any(|s| matches!(
            s.event,
            Event::EvidenceRecorded {
                kind: "double_vote",
                ..
            }
        )),
        "no double_vote evidence event emitted"
    );
}

#[test]
fn byzantine_parties_are_excluded_from_honest_set() {
    let spec = sailfish_spec(vec![(PartyId(3), Attack::Equivocate)]);
    let built = build_tribe(&spec);
    assert_eq!(built.honest.len(), 6);
    assert!(!built.honest.contains(&PartyId(3)));
}

#[test]
fn evidence_accessors_expose_culprit_and_round() {
    // The typed accessors tests and operators rely on.
    let ev = Evidence::DoubleVote {
        round: Round(3),
        voter: PartyId(9),
        first: clanbft_crypto::Digest::of(b"a"),
        second: clanbft_crypto::Digest::of(b"b"),
    };
    assert_eq!(ev.kind(), "double_vote");
    assert_eq!(ev.culprit(), PartyId(9));
    assert_eq!(ev.round(), Round(3));
}
