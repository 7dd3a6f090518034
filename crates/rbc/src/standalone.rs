//! Standalone broadcast nodes: the RBC engines wrapped as
//! [`Protocol`] implementations, runnable directly on the simulator or the
//! live transport without the consensus layer on top.
//!
//! Besides powering the RBC examples and tests, this module houses the
//! Byzantine sender behaviours (equivocation, selective sending) used to
//! exercise the engines' failure paths.

use crate::engine::{Effects, EngineConfig, RbcEvent, RbcMsg, RbcPacket};
use crate::payload::TribePayload;
use crate::topology::ClanTopology;
use crate::tribe2::TribeRbc2;
use crate::tribe3::TribeRbc3;
use clanbft_crypto::Authenticator;
use clanbft_simnet::protocol::{Ctx, Protocol};
use clanbft_types::{Micros, PartyId, Round, TribeParams};
use std::sync::Arc;

/// Which engine variant a standalone node runs.
pub enum Engine<P: TribePayload> {
    /// Three-round signature-free variant (paper Fig. 2).
    Three(TribeRbc3<P>),
    /// Two-round signed variant (paper Fig. 3).
    Two(TribeRbc2<P>),
}

impl<P: TribePayload> Engine<P> {
    fn handle(&mut self, from: PartyId, pkt: RbcPacket<P>, fx: &mut Effects<P>) {
        match self {
            Engine::Three(e) => e.handle(from, pkt, fx),
            Engine::Two(e) => e.handle(from, pkt, fx),
        }
    }

    fn broadcast(&mut self, round: Round, payload: P, fx: &mut Effects<P>) {
        match self {
            Engine::Three(e) => e.broadcast(round, payload, fx),
            Engine::Two(e) => e.broadcast(round, payload, fx),
        }
    }

    fn on_retry(&mut self, round: Round, source: PartyId, fx: &mut Effects<P>) {
        match self {
            Engine::Three(e) => e.on_retry(round, source, fx),
            Engine::Two(e) => e.on_retry(round, source, fx),
        }
    }

    fn tribe(&self) -> TribeParams {
        match self {
            Engine::Three(e) => e.config().topology.tribe(),
            Engine::Two(e) => e.config().topology.tribe(),
        }
    }
}

/// A delivered record kept by [`StandaloneNode`] for inspection.
#[derive(Clone, Debug)]
pub enum Delivery<P: TribePayload> {
    /// Full payload delivery with the time it happened.
    Full(PartyId, Round, P, Micros),
    /// Meta-view delivery with the time it happened.
    Meta(PartyId, Round, P::Meta, Micros),
}

/// A broadcast-only node: optionally broadcasts one payload at start, then
/// participates honestly and records every delivery.
pub struct StandaloneNode<P: TribePayload> {
    engine: Engine<P>,
    /// Payload to broadcast at start, if this node is a sender.
    pub to_send: Option<(Round, P)>,
    /// Deliveries observed, in order.
    pub deliveries: Vec<Delivery<P>>,
    /// Certification times observed, in order.
    pub certified: Vec<(PartyId, Round, Micros)>,
}

impl<P: TribePayload> StandaloneNode<P> {
    /// An honest node on the 3-round engine.
    pub fn three(cfg: EngineConfig) -> StandaloneNode<P> {
        StandaloneNode {
            engine: Engine::Three(TribeRbc3::new(cfg)),
            to_send: None,
            deliveries: Vec::new(),
            certified: Vec::new(),
        }
    }

    /// An honest node on the 2-round engine.
    pub fn two(cfg: EngineConfig, auth: Arc<Authenticator>) -> StandaloneNode<P> {
        StandaloneNode {
            engine: Engine::Two(TribeRbc2::new(cfg, auth)),
            to_send: None,
            deliveries: Vec::new(),
            certified: Vec::new(),
        }
    }

    /// Makes this node broadcast `payload` in `round` at start.
    pub fn with_broadcast(mut self, round: Round, payload: P) -> StandaloneNode<P> {
        self.to_send = Some((round, payload));
        self
    }

    fn apply(&mut self, fx: Effects<P>, ctx: &mut Ctx<RbcPacket<P>>) {
        ctx.charge(fx.charge);
        for ev in fx.events {
            match ev {
                RbcEvent::DeliverFull {
                    source,
                    round,
                    payload,
                    ..
                } => self
                    .deliveries
                    .push(Delivery::Full(source, round, payload, ctx.now())),
                RbcEvent::DeliverMeta {
                    source,
                    round,
                    meta,
                    ..
                } => self
                    .deliveries
                    .push(Delivery::Meta(source, round, meta, ctx.now())),
                RbcEvent::Certified { source, round, .. } => {
                    self.certified.push((source, round, ctx.now()))
                }
                RbcEvent::EchoQuorum { .. } => {}
            }
        }
        let tribe = self.engine.tribe();
        for (to, pkt) in fx.out {
            to.queue(tribe, pkt, ctx);
        }
        for (delay, token) in fx.timers {
            ctx.set_timer(delay, token);
        }
    }
}

impl<P: TribePayload> Protocol<RbcPacket<P>> for StandaloneNode<P> {
    fn on_start(&mut self, ctx: &mut Ctx<RbcPacket<P>>) {
        if let Some((round, payload)) = self.to_send.take() {
            let mut fx = Effects::new();
            self.engine.broadcast(round, payload, &mut fx);
            self.apply(fx, ctx);
        }
    }

    fn on_message(&mut self, from: PartyId, msg: RbcPacket<P>, ctx: &mut Ctx<RbcPacket<P>>) {
        let mut fx = Effects::new();
        self.engine.handle(from, msg, &mut fx);
        self.apply(fx, ctx);
    }

    fn on_timer(&mut self, token: u64, ctx: &mut Ctx<RbcPacket<P>>) {
        if let Some((round, source)) = crate::engine::parse_retry_token(token) {
            let mut fx = Effects::at(ctx.now());
            self.engine.on_retry(round, source, &mut fx);
            self.apply(fx, ctx);
        }
    }
}

/// Byzantine sender behaviours for exercising the engines.
pub enum ByzantineSender<P: TribePayload> {
    /// Sends payload `a` to one half of the clan and payload `b` to the
    /// other (and the matching metas outside), then stays silent.
    Equivocate {
        /// First payload.
        a: P,
        /// Second payload.
        b: P,
        /// Broadcast round.
        round: Round,
    },
    /// Sends the full payload to only `full_recipients` clan members (the
    /// rest of the tribe still gets the meta view), forcing pulls.
    Selective {
        /// The payload.
        payload: P,
        /// How many clan members receive it.
        full_recipients: usize,
        /// Broadcast round.
        round: Round,
    },
    /// Sends the full payload to the whole clan but withholds the meta view
    /// from the listed parties (they must pull it after certification).
    DepriveMeta {
        /// The payload.
        payload: P,
        /// Non-clan parties that receive nothing from the sender.
        deprived: Vec<PartyId>,
        /// Broadcast round.
        round: Round,
    },
    /// Sends nothing at all.
    Silent,
}

/// A node driven by a [`ByzantineSender`] script: it misbehaves as sender
/// and is otherwise mute (does not echo, vote or serve pulls).
pub struct ByzantineNode<P: TribePayload> {
    /// This node's id.
    pub me: PartyId,
    /// The clan topology (to aim payloads at the right parties).
    pub topology: Arc<ClanTopology>,
    /// The misbehaviour to enact.
    pub behaviour: ByzantineSender<P>,
}

impl<P: TribePayload> Protocol<RbcPacket<P>> for ByzantineNode<P> {
    fn on_start(&mut self, ctx: &mut Ctx<RbcPacket<P>>) {
        let me = self.me;
        let clan: Vec<PartyId> = self.topology.clan_for_sender(me).members.clone();
        let n = self.topology.tribe().n();
        match &self.behaviour {
            ByzantineSender::Equivocate { a, b, round } => {
                let half = clan.len() / 2;
                for (i, &p) in clan.iter().enumerate() {
                    let payload = if i < half { a.clone() } else { b.clone() };
                    ctx.send(
                        p,
                        RbcPacket {
                            source: me,
                            round: *round,
                            msg: RbcMsg::Val(payload),
                        },
                    );
                }
                for p in (0..n as u32).map(PartyId) {
                    if !clan.contains(&p) {
                        // Outside the clan, alternate metas by parity.
                        let meta = if p.0 % 2 == 0 { a.meta() } else { b.meta() };
                        ctx.send(
                            p,
                            RbcPacket {
                                source: me,
                                round: *round,
                                msg: RbcMsg::ValMeta(meta),
                            },
                        );
                    }
                }
            }
            ByzantineSender::Selective {
                payload,
                full_recipients,
                round,
            } => {
                let full_set: Vec<PartyId> = clan.iter().copied().take(*full_recipients).collect();
                let meta = payload.meta();
                for p in (0..n as u32).map(PartyId) {
                    let msg = if full_set.contains(&p) {
                        RbcMsg::Val(payload.clone())
                    } else {
                        RbcMsg::ValMeta(meta.clone())
                    };
                    ctx.send(
                        p,
                        RbcPacket {
                            source: me,
                            round: *round,
                            msg,
                        },
                    );
                }
            }
            ByzantineSender::DepriveMeta {
                payload,
                deprived,
                round,
            } => {
                let meta = payload.meta();
                for p in (0..n as u32).map(PartyId) {
                    if deprived.contains(&p) {
                        continue;
                    }
                    let msg = if clan.contains(&p) {
                        RbcMsg::Val(payload.clone())
                    } else {
                        RbcMsg::ValMeta(meta.clone())
                    };
                    ctx.send(
                        p,
                        RbcPacket {
                            source: me,
                            round: *round,
                            msg,
                        },
                    );
                }
            }
            ByzantineSender::Silent => {}
        }
    }

    fn on_message(&mut self, _from: PartyId, _msg: RbcPacket<P>, _ctx: &mut Ctx<RbcPacket<P>>) {}

    fn on_timer(&mut self, _token: u64, _ctx: &mut Ctx<RbcPacket<P>>) {}
}

/// Either an honest standalone node or a Byzantine one — the homogeneous
/// node type handed to the simulator.
// One value per simulated party; the variant size gap is irrelevant here
// and boxing would cost an indirection on every message.
#[allow(clippy::large_enum_variant)]
pub enum AnyNode<P: TribePayload> {
    /// Honest participant.
    Honest(StandaloneNode<P>),
    /// Scripted misbehaviour.
    Byzantine(ByzantineNode<P>),
}

impl<P: TribePayload> Protocol<RbcPacket<P>> for AnyNode<P> {
    fn on_start(&mut self, ctx: &mut Ctx<RbcPacket<P>>) {
        match self {
            AnyNode::Honest(n) => n.on_start(ctx),
            AnyNode::Byzantine(n) => n.on_start(ctx),
        }
    }

    fn on_message(&mut self, from: PartyId, msg: RbcPacket<P>, ctx: &mut Ctx<RbcPacket<P>>) {
        match self {
            AnyNode::Honest(n) => n.on_message(from, msg, ctx),
            AnyNode::Byzantine(n) => n.on_message(from, msg, ctx),
        }
    }

    fn on_timer(&mut self, token: u64, ctx: &mut Ctx<RbcPacket<P>>) {
        match self {
            AnyNode::Honest(n) => n.on_timer(token, ctx),
            AnyNode::Byzantine(n) => n.on_timer(token, ctx),
        }
    }
}
