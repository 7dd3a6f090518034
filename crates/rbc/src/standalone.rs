//! Standalone broadcast nodes: the RBC engine wrapped as a [`Protocol`]
//! implementation, runnable directly on the simulator without the consensus
//! layer on top.
//!
//! The engine queues its packets, timers and charges on the handler's
//! `Ctx`; the node then takes the engine's events and records deliveries
//! (the views it reads back from the engine) and certifications at
//! [`Ctx::now`].
//!
//! Besides powering the RBC examples and tests, this module houses the
//! Byzantine sender behaviours (equivocation, selective sending) used to
//! exercise the engine's failure paths.

use crate::engine::{parse_retry_token, EngineConfig, RbcEvent, RbcMsg, RbcPacket, TribeRbc};
use crate::payload::TribePayload;
use crate::topology::ClanTopology;
use clanbft_crypto::Authenticator;
use clanbft_simnet::protocol::{Ctx, Protocol};
use clanbft_types::{Micros, PartyId, Round};
use std::sync::Arc;

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
    engine: TribeRbc<P>,
    /// Payload to broadcast at start, if this node is a sender.
    pub to_send: Option<(Round, P)>,
    /// Deliveries observed, in order.
    pub deliveries: Vec<Delivery<P>>,
    /// Certification times observed, in order.
    pub certified: Vec<(PartyId, Round, Micros)>,
}

impl<P: TribePayload> StandaloneNode<P> {
    fn new(engine: TribeRbc<P>) -> StandaloneNode<P> {
        StandaloneNode {
            engine,
            to_send: None,
            deliveries: Vec::new(),
            certified: Vec::new(),
        }
    }

    /// An honest node on the 3-round signature-free engine.
    pub fn three(cfg: EngineConfig) -> StandaloneNode<P> {
        StandaloneNode::new(TribeRbc::signature_free(cfg))
    }

    /// An honest node on the 2-round signed engine.
    pub fn two(cfg: EngineConfig, auth: Arc<Authenticator>) -> StandaloneNode<P> {
        StandaloneNode::new(TribeRbc::signed(cfg, auth))
    }

    /// Makes this node broadcast `payload` in `round` at start.
    pub fn with_broadcast(mut self, round: Round, payload: P) -> StandaloneNode<P> {
        self.to_send = Some((round, payload));
        self
    }

    /// Records what the engine's last call yielded, reading each delivered
    /// view from the engine.
    fn record_events(&mut self, ctx: &Ctx<RbcPacket<P>>) {
        let mut events = Vec::new();
        self.engine.take_events(&mut events);
        for ev in events {
            match ev {
                RbcEvent::DeliverFull { source, round, .. } => {
                    let payload = self.engine.payload(round, source).expect("delivered");
                    let delivery = Delivery::Full(source, round, payload.clone(), ctx.now());
                    self.deliveries.push(delivery);
                }
                RbcEvent::DeliverMeta { source, round, .. } => {
                    let (meta, _) = self.engine.meta_of(round, source).expect("delivered");
                    let delivery = Delivery::Meta(source, round, meta, ctx.now());
                    self.deliveries.push(delivery);
                }
                RbcEvent::Certified { source, round, .. } => {
                    self.certified.push((source, round, ctx.now()))
                }
                RbcEvent::Evidence(_) => {}
            }
        }
    }
}

impl<P: TribePayload> Protocol<RbcPacket<P>> for StandaloneNode<P> {
    fn on_start(&mut self, ctx: &mut Ctx<RbcPacket<P>>) {
        if let Some((round, payload)) = self.to_send.take() {
            self.engine.broadcast(round, payload, ctx);
            self.record_events(ctx);
        }
    }

    fn on_message(&mut self, from: PartyId, msg: RbcPacket<P>, ctx: &mut Ctx<RbcPacket<P>>) {
        self.on_message_ref(from, &msg, ctx);
    }

    fn on_message_ref(&mut self, from: PartyId, msg: &RbcPacket<P>, ctx: &mut Ctx<RbcPacket<P>>) {
        self.engine.handle(from, msg, ctx);
        self.record_events(ctx);
    }

    fn on_timer(&mut self, token: u64, ctx: &mut Ctx<RbcPacket<P>>) {
        if let Some((round, source)) = parse_retry_token(token) {
            self.engine.on_retry(round, source, ctx);
            self.record_events(ctx);
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

impl<P: TribePayload> ByzantineSender<P> {
    /// What the script hands party `p`: the payload to show it and whether
    /// in full, or nothing. `seat` is `p`'s position in the sender's clan
    /// (`None` outside it) and `clan_len` the clan's size.
    fn script(
        &self,
        p: PartyId,
        seat: Option<usize>,
        clan_len: usize,
    ) -> Option<(Round, &P, bool)> {
        match self {
            ByzantineSender::Equivocate { a, b, round } => {
                // Clan: first half `a`, second half `b`; outside the clan,
                // alternate metas by parity.
                let first = seat.map_or(p.0 % 2 == 0, |i| i < clan_len / 2);
                Some((*round, if first { a } else { b }, seat.is_some()))
            }
            ByzantineSender::Selective {
                payload,
                full_recipients,
                round,
            } => Some((*round, payload, seat.is_some_and(|i| i < *full_recipients))),
            ByzantineSender::DepriveMeta {
                payload,
                deprived,
                round,
            } => (!deprived.contains(&p)).then_some((*round, payload, seat.is_some())),
            ByzantineSender::Silent => None,
        }
    }
}

impl<P: TribePayload> Protocol<RbcPacket<P>> for ByzantineNode<P> {
    fn on_start(&mut self, ctx: &mut Ctx<RbcPacket<P>>) {
        let source = self.me;
        let clan = &self.topology.clan_for_sender(source).members;
        for p in self.topology.tribe().parties() {
            let seat = clan.iter().position(|m| *m == p);
            if let Some((round, payload, full)) = self.behaviour.script(p, seat, clan.len()) {
                let msg = if full {
                    RbcMsg::Val(payload.clone())
                } else {
                    RbcMsg::ValMeta(payload.meta())
                };
                ctx.send(p, RbcPacket { source, round, msg });
            }
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
        self.on_message_ref(from, &msg, ctx);
    }

    // Forwarded explicitly: the trait default would clone the packet into
    // `on_message` for every delivery.
    fn on_message_ref(&mut self, from: PartyId, msg: &RbcPacket<P>, ctx: &mut Ctx<RbcPacket<P>>) {
        match self {
            AnyNode::Honest(n) => n.on_message_ref(from, msg, ctx),
            AnyNode::Byzantine(n) => n.on_message_ref(from, msg, ctx),
        }
    }

    fn on_timer(&mut self, token: u64, ctx: &mut Ctx<RbcPacket<P>>) {
        match self {
            AnyNode::Honest(n) => n.on_timer(token, ctx),
            AnyNode::Byzantine(n) => n.on_timer(token, ctx),
        }
    }
}
