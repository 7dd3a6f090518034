//! `simnet`: the simulator's own per-event cost — queue, latency lookup,
//! bandwidth accounting and jitter draw — under a protocol that does
//! nothing but multicast fixed-size messages, at the workload's tribe size
//! and bulk fan-out.

use super::{Env, Out};
use crate::stats::median;
use clanbft_simnet::net::{SimConfig, Simulator};
use clanbft_simnet::{Ctx, Message, Protocol};
use clanbft_types::{Micros, PartyId};
use std::time::Instant;

#[derive(Clone, Debug)]
struct Ping;

impl Message for Ping {
    fn wire_bytes(&self) -> usize {
        200
    }
}

/// Multicasts one `Ping` to every other party per tick, `ticks` times.
struct Chatter {
    n: u32,
    ticks: u32,
    received: u64,
}

impl Chatter {
    fn tick(&mut self, ctx: &mut Ctx<Ping>) {
        if self.ticks == 0 {
            return;
        }
        self.ticks -= 1;
        let me = ctx.party();
        ctx.multicast((0..self.n).map(PartyId).filter(|&p| p != me), Ping);
        ctx.set_timer(Micros::from_millis(100), 0);
    }
}

impl Protocol<Ping> for Chatter {
    fn on_start(&mut self, ctx: &mut Ctx<Ping>) {
        self.tick(ctx);
    }

    fn on_message(&mut self, _from: PartyId, _msg: Ping, _ctx: &mut Ctx<Ping>) {
        self.received += 1;
    }

    fn on_timer(&mut self, _token: u64, ctx: &mut Ctx<Ping>) {
        self.tick(ctx);
    }
}

pub fn run(env: &Env<'_>, out: &mut Out) {
    let n = env.w.n;
    // ~250 k events per sample whatever the tribe size.
    let ticks = (env.iters(250_000) / (n * n)).max(2) as u32;
    let samples: Vec<f64> = (0..5)
        .map(|_| {
            let mut cfg = SimConfig::benign(n, env.seed);
            cfg.bulk_fanout = vec![(env.w.clan_size() - 1).max(1); n];
            let nodes = (0..n)
                .map(|_| Chatter {
                    n: n as u32,
                    ticks,
                    received: 0,
                })
                .collect();
            let mut sim = Simulator::new(cfg, nodes);
            let t = Instant::now();
            sim.run_to_quiescence();
            let ns = t.elapsed().as_nanos() as f64;
            let received: u64 = sim.nodes().map(|c| c.received).sum();
            assert_eq!(
                received,
                (n * (n - 1)) as u64 * u64::from(ticks),
                "simnet driver: every multicast is delivered"
            );
            ns / sim.stats().handled_events as f64
        })
        .collect();
    out.insert("simnet.dispatch_ns_per_event", median(&samples));
}
