//! `rbc`: one tribe-assisted reliable broadcast of a 1 MiB payload on the
//! 2-round signed engine, in a single region, with the tribe and clan size
//! of the workload being traced (n = 50 with nc = 32 under `clan50_sat`,
//! nc = 50 under `sailfish50_sat`).

use super::{Env, Out};
use crate::stats::median;
use clanbft_crypto::{Authenticator, Registry, Scheme};
use clanbft_rbc::standalone::StandaloneNode;
use clanbft_rbc::{BytesPayload, ClanTopology, EngineConfig};
use clanbft_simnet::net::{SimConfig, Simulator};
use clanbft_simnet::regions::LatencyMatrix;
use clanbft_simnet::CostModel;
use clanbft_types::{PartyId, Round, TribeParams};
use std::sync::Arc;
use std::time::Instant;

pub fn run(env: &Env<'_>, out: &mut Out) {
    let n = env.w.n;
    let nc = env.w.clan_size();
    let tribe = TribeParams::new(n);
    let topology = Arc::new(if nc == n {
        ClanTopology::whole_tribe(tribe)
    } else {
        ClanTopology::single_clan(tribe, (0..nc as u32).map(PartyId).collect())
    });
    let payload = BytesPayload::new(vec![0x42; 1 << 20]);

    let mut walls = Vec::new();
    let (mut msgs, mut bytes) = (0, 0);
    for _ in 0..if env.quick { 1 } else { 3 } {
        let (registry, keypairs) = Registry::generate(Scheme::Keyed, n, env.seed);
        let nodes: Vec<StandaloneNode<BytesPayload>> = keypairs
            .into_iter()
            .enumerate()
            .map(|(i, kp)| {
                let auth = Arc::new(Authenticator::new(i, kp, Arc::clone(&registry)));
                let cfg = EngineConfig::new(
                    PartyId(i as u32),
                    Arc::clone(&topology),
                    CostModel::default(),
                );
                let node = StandaloneNode::two(cfg, auth);
                if i == 0 {
                    node.with_broadcast(Round(0), payload.clone())
                } else {
                    node
                }
            })
            .collect();
        let mut cfg = SimConfig::benign(n, env.seed);
        cfg.latency = LatencyMatrix::single_region(n);
        let mut sim = Simulator::new(cfg, nodes);
        let t = Instant::now();
        sim.run_to_quiescence();
        walls.push(t.elapsed().as_nanos() as f64 / 1e3);
        let delivered = (0..n as u32)
            .filter(|&p| !sim.node(PartyId(p)).deliveries.is_empty())
            .count();
        assert_eq!(delivered, n, "rbc driver: every party must deliver");
        msgs = sim.stats().sent_msgs.iter().sum();
        bytes = sim.stats().total_bytes();
    }
    out.insert("rbc.instance_host_us", median(&walls));
    out.insert("rbc.msgs_per_instance", msgs as f64);
    out.insert("rbc.bytes_per_instance", bytes as f64);
}
