//! End-to-end tests of the tribe-assisted RBC engines over the
//! discrete-event simulator, including Byzantine sender behaviours.

use clanbft_crypto::{Authenticator, Registry, Scheme};
use clanbft_rbc::standalone::{AnyNode, ByzantineNode, ByzantineSender, Delivery, StandaloneNode};
use clanbft_rbc::{BytesPayload, ClanTopology, EngineConfig};
use clanbft_simnet::cost::CostModel;
use clanbft_simnet::net::{SimConfig, Simulator};
use clanbft_types::{Micros, PartyId, Round, TribeParams};
use std::sync::Arc;

type Node = AnyNode<BytesPayload>;
type Sim = Simulator<clanbft_rbc::RbcPacket<BytesPayload>, Node>;

#[derive(Clone, Copy, Debug)]
enum Variant {
    Three,
    Two,
}

struct Setup {
    topology: Arc<ClanTopology>,
    auths: Vec<Arc<Authenticator>>,
    cfg: SimConfig,
}

fn setup(n: usize, clan: Option<Vec<u32>>, seed: u64) -> Setup {
    let tribe = TribeParams::new(n);
    let topology = Arc::new(match clan {
        None => ClanTopology::whole_tribe(tribe),
        Some(members) => {
            ClanTopology::single_clan(tribe, members.into_iter().map(PartyId).collect())
        }
    });
    let (registry, keypairs) = Registry::generate(Scheme::Keyed, n, seed);
    let auths: Vec<Arc<Authenticator>> = keypairs
        .into_iter()
        .enumerate()
        .map(|(i, kp)| Arc::new(Authenticator::new(i, kp, Arc::clone(&registry))))
        .collect();
    let mut cfg = SimConfig::benign(n, seed);
    cfg.cost = CostModel::free();
    cfg.jitter_frac = 0.0;
    Setup {
        topology,
        auths,
        cfg,
    }
}

fn honest(setup: &Setup, i: usize, variant: &Variant) -> StandaloneNode<BytesPayload> {
    let ecfg = EngineConfig::new(
        PartyId(i as u32),
        Arc::clone(&setup.topology),
        CostModel::free(),
    );
    match variant {
        Variant::Three => StandaloneNode::three(ecfg),
        Variant::Two => StandaloneNode::two(ecfg, Arc::clone(&setup.auths[i])),
    }
}

fn run(sim: &mut Sim) {
    sim.run_until(Micros::from_secs(30));
}

fn full_deliveries(node: &Node) -> Vec<(PartyId, Round, Vec<u8>, Micros)> {
    match node {
        AnyNode::Honest(h) => h
            .deliveries
            .iter()
            .filter_map(|d| match d {
                Delivery::Full(s, r, p, t) => Some((*s, *r, p.data().to_vec(), *t)),
                Delivery::Meta(..) => None,
            })
            .collect(),
        AnyNode::Byzantine(_) => Vec::new(),
    }
}

fn meta_deliveries(node: &Node) -> Vec<(PartyId, Round, clanbft_crypto::Digest, Micros)> {
    match node {
        AnyNode::Honest(h) => h
            .deliveries
            .iter()
            .filter_map(|d| match d {
                Delivery::Meta(s, r, m, t) => Some((*s, *r, m.0, *t)),
                Delivery::Full(..) => None,
            })
            .collect(),
        AnyNode::Byzantine(_) => Vec::new(),
    }
}

/// Validity with an honest sender: clan members deliver the payload,
/// everyone else its digest.
fn honest_sender_case(variant: Variant) {
    let n = 10;
    let clan: Vec<u32> = vec![0, 2, 4, 6, 8];
    let s = setup(n, Some(clan.clone()), 7);
    let payload = BytesPayload::new(vec![0xab; 2048]);
    let digest = clanbft_rbc::TribePayload::rbc_digest(&payload);
    let nodes: Vec<Node> = (0..n)
        .map(|i| {
            let mut h = honest(&s, i, &variant);
            if i == 0 {
                h = h.with_broadcast(Round(1), payload.clone());
            }
            AnyNode::Honest(h)
        })
        .collect();
    let mut sim = Simulator::new(s.cfg.clone(), nodes);
    run(&mut sim);
    for i in 0..n {
        let node = sim.node(PartyId(i as u32));
        if clan.contains(&(i as u32)) {
            let fulls = full_deliveries(node);
            assert_eq!(fulls.len(), 1, "clan node {i} delivers once");
            assert_eq!(
                fulls[0].2,
                vec![0xab; 2048],
                "clan node {i} has the payload"
            );
        } else {
            let metas = meta_deliveries(node);
            assert_eq!(metas.len(), 1, "non-clan node {i} delivers once");
            assert_eq!(metas[0].2, digest, "non-clan node {i} has the digest");
        }
    }
}

#[test]
fn tribe3_honest_sender() {
    honest_sender_case(Variant::Three);
}

#[test]
fn tribe2_honest_sender() {
    honest_sender_case(Variant::Two);
}

/// With the clan set to the whole tribe, the 3-round engine is Bracha's RBC:
/// everyone delivers the full payload.
#[test]
fn whole_tribe_is_bracha() {
    let n = 7;
    let s = setup(n, None, 3);
    let payload = BytesPayload::new(b"bracha says hello".to_vec());
    let nodes: Vec<Node> = (0..n)
        .map(|i| {
            let mut h = honest(&s, i, &Variant::Three);
            if i == 3 {
                h = h.with_broadcast(Round(0), payload.clone());
            }
            AnyNode::Honest(h)
        })
        .collect();
    let mut sim = Simulator::new(s.cfg.clone(), nodes);
    run(&mut sim);
    for i in 0..n {
        let fulls = full_deliveries(sim.node(PartyId(i as u32)));
        assert_eq!(fulls.len(), 1, "node {i}");
        assert_eq!(fulls[0].0, PartyId(3));
    }
}

/// The 2-round variant certifies strictly faster than the 3-round variant on
/// the same topology (one less message delay in the good case).
#[test]
fn two_round_is_faster() {
    let n = 8;
    let latest_cert = |variant: Variant| -> Micros {
        let s = setup(n, Some(vec![0, 1, 2, 3]), 5);
        let payload = BytesPayload::new(vec![1; 512]);
        let nodes: Vec<Node> = (0..n)
            .map(|i| {
                let mut h = honest(&s, i, &variant);
                if i == 0 {
                    h = h.with_broadcast(Round(0), payload.clone());
                }
                AnyNode::Honest(h)
            })
            .collect();
        let mut sim = Simulator::new(s.cfg.clone(), nodes);
        run(&mut sim);
        (0..n)
            .filter_map(|i| match sim.node(PartyId(i as u32)) {
                AnyNode::Honest(h) => h.certified.first().map(|c| c.2),
                AnyNode::Byzantine(_) => None,
            })
            .max()
            .expect("all certified")
    };
    let t2 = latest_cert(Variant::Two);
    let t3 = latest_cert(Variant::Three);
    assert!(
        t2 < t3,
        "2-round ({t2}) should certify before 3-round ({t3})"
    );
}

/// Agreement under an equivocating sender: no two honest parties deliver
/// different values for the same (source, round).
fn equivocation_case(variant: Variant) {
    let n = 10;
    let clan: Vec<u32> = vec![1, 3, 5, 7, 9];
    let s = setup(n, Some(clan), 11);
    let a = BytesPayload::new(vec![0xaa; 256]);
    let b = BytesPayload::new(vec![0xbb; 256]);
    let nodes: Vec<Node> = (0..n)
        .map(|i| {
            if i == 1 {
                AnyNode::Byzantine(ByzantineNode {
                    me: PartyId(1),
                    topology: Arc::clone(&s.topology),
                    behaviour: ByzantineSender::Equivocate {
                        a: a.clone(),
                        b: b.clone(),
                        round: Round(0),
                    },
                })
            } else {
                AnyNode::Honest(honest(&s, i, &variant))
            }
        })
        .collect();
    let mut sim = Simulator::new(s.cfg.clone(), nodes);
    run(&mut sim);
    let mut digests = std::collections::HashSet::new();
    for i in 0..n {
        for (_, _, data, _) in full_deliveries(sim.node(PartyId(i as u32))) {
            digests.insert(clanbft_crypto::Digest::of(&data));
        }
        for (_, _, d, _) in meta_deliveries(sim.node(PartyId(i as u32))) {
            digests.insert(d);
        }
    }
    assert!(
        digests.len() <= 1,
        "honest parties delivered {} distinct values under equivocation",
        digests.len()
    );
}

#[test]
fn tribe3_no_equivocation() {
    equivocation_case(Variant::Three);
}

#[test]
fn tribe2_no_equivocation() {
    equivocation_case(Variant::Two);
}

/// A selective sender gives the payload to only f_c+1 clan members; the
/// remaining honest clan members must pull it and still deliver in full.
fn selective_sender_case(variant: Variant) {
    let n = 10;
    let clan: Vec<u32> = vec![0, 1, 2, 3, 4]; // fc = 2, clan quorum = 3
    let s = setup(n, Some(clan.clone()), 13);
    let payload = BytesPayload::new(vec![0x5a; 4096]);
    let nodes: Vec<Node> = (0..n)
        .map(|i| {
            if i == 0 {
                AnyNode::Byzantine(ByzantineNode {
                    me: PartyId(0),
                    topology: Arc::clone(&s.topology),
                    behaviour: ByzantineSender::Selective {
                        payload: payload.clone(),
                        // Members 0 (the silent sender itself), 1, 2, 3 get
                        // the payload: three honest custodians = f_c+1.
                        full_recipients: 4,
                        round: Round(2),
                    },
                })
            } else {
                AnyNode::Honest(honest(&s, i, &variant))
            }
        })
        .collect();
    let mut sim = Simulator::new(s.cfg.clone(), nodes);
    run(&mut sim);
    // Clan member 4 got no VAL; it must deliver via pull. (Members 1-3 got
    // it directly; the Byzantine member 0 does not count.)
    for i in [1u32, 2, 3, 4] {
        let fulls = full_deliveries(sim.node(PartyId(i)));
        assert_eq!(fulls.len(), 1, "clan node {i} delivered");
        assert_eq!(fulls[0].2, vec![0x5a; 4096], "clan node {i} payload intact");
    }
    for i in [5u32, 6, 7, 8, 9] {
        assert_eq!(meta_deliveries(sim.node(PartyId(i))).len(), 1, "node {i}");
    }
}

#[test]
fn tribe3_selective_sender_forces_pull() {
    selective_sender_case(Variant::Three);
}

#[test]
fn tribe2_selective_sender_forces_pull() {
    selective_sender_case(Variant::Two);
}

/// A sender that withholds the meta view from one non-clan party: that
/// party certifies through the tribe's echoes and must pull the vertex
/// meta before it can deliver the digest.
fn deprive_meta_case(variant: Variant) {
    let n = 10;
    let clan: Vec<u32> = vec![0, 1, 2, 3, 4];
    let s = setup(n, Some(clan), 29);
    let payload = BytesPayload::new(vec![0x77; 1024]);
    let deprived = PartyId(9);
    let nodes: Vec<Node> = (0..n)
        .map(|i| {
            if i == 0 {
                AnyNode::Byzantine(ByzantineNode {
                    me: PartyId(0),
                    topology: Arc::clone(&s.topology),
                    behaviour: ByzantineSender::DepriveMeta {
                        payload: payload.clone(),
                        deprived: vec![deprived],
                        round: Round(1),
                    },
                })
            } else {
                AnyNode::Honest(honest(&s, i, &variant))
            }
        })
        .collect();
    let mut sim = Simulator::new(s.cfg.clone(), nodes);
    run(&mut sim);
    let metas = meta_deliveries(sim.node(deprived));
    assert_eq!(metas.len(), 1, "deprived node must deliver via meta pull");
    assert_eq!(
        metas[0].2,
        clanbft_rbc::TribePayload::rbc_digest(&payload),
        "pulled meta matches the certified digest"
    );
}

#[test]
fn tribe3_meta_pull_recovers_deprived_party() {
    deprive_meta_case(Variant::Three);
}

#[test]
fn tribe2_meta_pull_recovers_deprived_party() {
    deprive_meta_case(Variant::Two);
}

/// A silent sender produces no deliveries anywhere (and no panics).
#[test]
fn silent_sender_delivers_nothing() {
    let n = 7;
    let s = setup(n, Some(vec![0, 1, 2]), 17);
    let nodes: Vec<Node> = (0..n)
        .map(|i| {
            if i == 0 {
                AnyNode::Byzantine(ByzantineNode {
                    me: PartyId(0),
                    topology: Arc::clone(&s.topology),
                    behaviour: ByzantineSender::Silent,
                })
            } else {
                AnyNode::Honest(honest(&s, i, &Variant::Three))
            }
        })
        .collect();
    let mut sim = Simulator::new(s.cfg.clone(), nodes);
    run(&mut sim);
    for i in 1..n {
        let node = sim.node(PartyId(i as u32));
        assert!(full_deliveries(node).is_empty());
        assert!(meta_deliveries(node).is_empty());
    }
}

/// Integrity: concurrent broadcasts from every party in the same round each
/// deliver exactly once at every honest node.
#[test]
fn concurrent_broadcasts_integrity() {
    let n = 7;
    let s = setup(n, Some(vec![0, 1, 2, 3]), 19);
    let nodes: Vec<Node> = (0..n)
        .map(|i| {
            let payload = BytesPayload::new(vec![i as u8; 128 + i]);
            AnyNode::Honest(honest(&s, i, &Variant::Two).with_broadcast(Round(5), payload))
        })
        .collect();
    let mut sim = Simulator::new(s.cfg.clone(), nodes);
    run(&mut sim);
    for i in 0..n {
        let node = sim.node(PartyId(i as u32));
        let total = full_deliveries(node).len() + meta_deliveries(node).len();
        assert_eq!(total, n, "node {i} delivered every instance exactly once");
        // No duplicate sources.
        let mut sources: Vec<PartyId> = full_deliveries(node)
            .iter()
            .map(|d| d.0)
            .chain(meta_deliveries(node).iter().map(|d| d.0))
            .collect();
        sources.sort();
        sources.dedup();
        assert_eq!(sources.len(), n, "node {i} has duplicate deliveries");
    }
}

/// Communication scaling: with a large payload, restricting dissemination to
/// the clan cuts total bytes roughly by the clan fraction (paper's core
/// bandwidth claim, O(n_c·ℓ) vs O(n·ℓ)).
#[test]
fn clan_dissemination_saves_bandwidth() {
    let n = 20;
    let payload_len = 200_000;
    let bytes_for = |clan: Option<Vec<u32>>| -> u64 {
        let s = setup(n, clan, 23);
        let payload = BytesPayload::new(vec![9; payload_len]);
        let nodes: Vec<Node> = (0..n)
            .map(|i| {
                let mut h = honest(&s, i, &Variant::Three);
                if i == 0 {
                    h = h.with_broadcast(Round(0), payload.clone());
                }
                AnyNode::Honest(h)
            })
            .collect();
        let mut sim = Simulator::new(s.cfg.clone(), nodes);
        run(&mut sim);
        sim.stats().total_bytes()
    };
    // Clan of 5 (node 0 inside it) vs whole tribe.
    let clan_bytes = bytes_for(Some(vec![0, 1, 2, 3, 4]));
    let tribe_bytes = bytes_for(None);
    // Sender payload bytes: 4 remote clan members vs 19 tribe members.
    let payload_clan = 4 * payload_len as u64;
    let payload_tribe = 19 * payload_len as u64;
    assert!(clan_bytes > payload_clan, "accounting sane");
    assert!(
        (tribe_bytes - clan_bytes) as f64 > 0.8 * (payload_tribe - payload_clan) as f64,
        "clan dissemination saves payload bandwidth: clan={clan_bytes} tribe={tribe_bytes}"
    );
}

/// Everything a standalone broadcast shows from outside: wire traffic in
/// total and per message kind, and when each party first delivered and
/// first certified (simulated µs; 0 = never — nothing completes at t = 0).
#[derive(Debug, PartialEq)]
struct BroadcastFingerprint {
    sent_msgs: u64,
    total_bytes: u64,
    bytes_by_kind: Vec<(&'static str, u64)>,
    delivered_at: Vec<u64>,
    certified_at: Vec<u64>,
}

/// One broadcast by party 0 (n = 10, clan 0..5, round 1) under the default
/// cost model and jitter, so CPU charges and draw order show up as times.
/// `script` replaces the sender with a Byzantine one; `None` is benign.
fn broadcast_fingerprint(
    variant: Variant,
    script: Option<ByzantineSender<BytesPayload>>,
) -> BroadcastFingerprint {
    let n = 10;
    let mut s = setup(n, Some(vec![0, 1, 2, 3, 4]), 31);
    s.cfg = SimConfig::benign(n, 31);
    let mut script = script;
    let nodes: Vec<Node> = (0..n)
        .map(|i| {
            let ecfg = EngineConfig::new(
                PartyId(i as u32),
                Arc::clone(&s.topology),
                CostModel::default(),
            );
            let h = match variant {
                Variant::Three => StandaloneNode::three(ecfg),
                Variant::Two => StandaloneNode::two(ecfg, Arc::clone(&s.auths[i])),
            };
            match (i, script.take()) {
                (0, Some(behaviour)) => AnyNode::Byzantine(ByzantineNode {
                    me: PartyId(0),
                    topology: Arc::clone(&s.topology),
                    behaviour,
                }),
                (0, None) => {
                    AnyNode::Honest(h.with_broadcast(Round(1), BytesPayload::new(vec![0xc3; 3000])))
                }
                _ => AnyNode::Honest(h),
            }
        })
        .collect();
    let mut sim = Simulator::new(s.cfg.clone(), nodes);
    run(&mut sim);
    let first = |f: &dyn Fn(&StandaloneNode<BytesPayload>) -> Option<Micros>| -> Vec<u64> {
        (0..n as u32)
            .map(|p| match sim.node(PartyId(p)) {
                AnyNode::Honest(h) => f(h).map_or(0, |t| t.0),
                AnyNode::Byzantine(_) => 0,
            })
            .collect()
    };
    BroadcastFingerprint {
        sent_msgs: sim.stats().sent_msgs.iter().sum(),
        total_bytes: sim.stats().total_bytes(),
        bytes_by_kind: sim
            .stats()
            .bytes_by_kind
            .iter()
            .map(|(k, v)| (*k, *v))
            .collect(),
        delivered_at: first(&|h| {
            h.deliveries.first().map(|d| match d {
                Delivery::Full(_, _, _, t) | Delivery::Meta(_, _, _, t) => *t,
            })
        }),
        certified_at: first(&|h| h.certified.first().map(|c| c.2)),
    }
}

fn pinned_scripts() -> Vec<(&'static str, Option<ByzantineSender<BytesPayload>>)> {
    let payload = BytesPayload::new(vec![0xc3; 3000]);
    vec![
        ("benign", None),
        (
            "equivocate",
            Some(ByzantineSender::Equivocate {
                a: payload.clone(),
                b: BytesPayload::new(vec![0x3c; 3000]),
                round: Round(1),
            }),
        ),
        (
            "selective",
            Some(ByzantineSender::Selective {
                payload: payload.clone(),
                full_recipients: 4,
                round: Round(1),
            }),
        ),
        (
            "deprive_meta",
            Some(ByzantineSender::DepriveMeta {
                payload,
                deprived: vec![PartyId(9)],
                round: Round(1),
            }),
        ),
    ]
}

/// Cross-commit pin for the standalone engines: both flavours under a benign
/// and three Byzantine senders, captured at the commit before the two
/// engines were merged into one. The 3-round flavour and the Byzantine
/// scripts run nowhere else with fixed expected numbers, so this table is
/// what shows that a change to the broadcast layer kept every message, byte,
/// CPU charge and jitter draw where it was. A change that moves a value
/// changed the protocol and has to say so by re-pinning.
#[test]
fn standalone_broadcasts_are_pinned() {
    let pinned = vec![
        (
            Variant::Three,
            "benign",
            BroadcastFingerprint {
                sent_msgs: 189,
                total_bytes: 20984,
                bytes_by_kind: vec![
                    ("rbc.echo", 4320),
                    ("rbc.meta", 280),
                    ("rbc.ready", 4320),
                    ("rbc.val", 12064),
                ],
                delivered_at: vec![
                    232773, 200800, 272274, 240275, 257545, 231170, 201528, 272927, 237525, 255848,
                ],
                certified_at: vec![
                    232773, 200800, 272274, 240275, 257545, 231170, 201528, 272927, 237525, 255848,
                ],
            },
        ),
        (
            Variant::Three,
            "equivocate",
            BroadcastFingerprint {
                sent_msgs: 90,
                total_bytes: 16232,
                bytes_by_kind: vec![("rbc.echo", 3888), ("rbc.meta", 280), ("rbc.val", 12064)],
                delivered_at: vec![0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
                certified_at: vec![0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
            },
        ),
        (
            Variant::Three,
            "selective",
            BroadcastFingerprint {
                sent_msgs: 168,
                total_bytes: 25920,
                bytes_by_kind: vec![
                    ("rbc.echo", 3456),
                    ("rbc.meta", 336),
                    ("rbc.pull", 144),
                    ("rbc.pull_resp", 9048),
                    ("rbc.ready", 3888),
                    ("rbc.val", 9048),
                ],
                delivered_at: vec![
                    0, 275873, 307425, 260622, 348075, 265352, 276252, 307742, 260693, 258881,
                ],
                certified_at: vec![
                    0, 275873, 307425, 260622, 258673, 265352, 276252, 307742, 260693, 258881,
                ],
            },
        ),
        (
            Variant::Three,
            "deprive_meta",
            BroadcastFingerprint {
                sent_msgs: 169,
                total_bytes: 20048,
                bytes_by_kind: vec![
                    ("rbc.echo", 3456),
                    ("rbc.meta", 224),
                    ("rbc.meta_resp", 224),
                    ("rbc.pull", 192),
                    ("rbc.ready", 3888),
                    ("rbc.val", 12064),
                ],
                delivered_at: vec![
                    0, 275625, 303651, 260476, 258397, 262308, 275338, 306047, 260139, 259513,
                ],
                certified_at: vec![
                    0, 275625, 303651, 260476, 258397, 262308, 275338, 306047, 260139, 258916,
                ],
            },
        ),
        (
            Variant::Two,
            "benign",
            BroadcastFingerprint {
                sent_msgs: 189,
                total_bytes: 32684,
                bytes_by_kind: vec![
                    ("rbc.cert", 10260),
                    ("rbc.echo", 10080),
                    ("rbc.meta", 280),
                    ("rbc.val", 12064),
                ],
                delivered_at: vec![
                    159987, 136452, 205666, 150992, 131411, 158387, 134905, 204096, 152560, 132931,
                ],
                certified_at: vec![
                    159987, 136452, 205666, 150992, 131411, 158387, 134905, 204096, 152560, 132931,
                ],
            },
        ),
        (
            Variant::Two,
            "equivocate",
            BroadcastFingerprint {
                sent_msgs: 90,
                total_bytes: 21416,
                bytes_by_kind: vec![("rbc.echo", 9072), ("rbc.meta", 280), ("rbc.val", 12064)],
                delivered_at: vec![0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
                certified_at: vec![0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
            },
        ),
        (
            Variant::Two,
            "selective",
            BroadcastFingerprint {
                sent_msgs: 166,
                total_bytes: 32810,
                bytes_by_kind: vec![
                    ("rbc.cert", 9234),
                    ("rbc.echo", 8064),
                    ("rbc.meta", 336),
                    ("rbc.pull", 96),
                    ("rbc.pull_resp", 6032),
                    ("rbc.val", 9048),
                ],
                delivered_at: vec![
                    0, 138328, 206839, 182034, 312408, 161555, 136774, 205263, 182290, 206902,
                ],
                certified_at: vec![
                    0, 138328, 206839, 182034, 205381, 161555, 136774, 205263, 182290, 206902,
                ],
            },
        ),
        (
            Variant::Two,
            "deprive_meta",
            BroadcastFingerprint {
                sent_msgs: 169,
                total_bytes: 30002,
                bytes_by_kind: vec![
                    ("rbc.cert", 9234),
                    ("rbc.echo", 8064),
                    ("rbc.meta", 224),
                    ("rbc.meta_resp", 224),
                    ("rbc.pull", 192),
                    ("rbc.val", 12064),
                ],
                delivered_at: vec![
                    0, 138492, 202870, 178104, 204613, 160391, 136944, 204450, 179665, 206732,
                ],
                certified_at: vec![
                    0, 138492, 202870, 178104, 204613, 160391, 136944, 204450, 179665, 206131,
                ],
            },
        ),
    ];
    let mut scripts = Vec::new();
    scripts.extend(pinned_scripts());
    scripts.extend(pinned_scripts());
    for ((variant, name, expected), (script_name, script)) in pinned.into_iter().zip(scripts) {
        assert_eq!(name, script_name);
        assert_eq!(
            broadcast_fingerprint(variant, script),
            expected,
            "{variant:?} flavour, {name} sender"
        );
    }
}
