//! The protocol-facing interface: deterministic message-driven state
//! machines that run identically under the discrete-event simulator and the
//! live threaded transport.

use crate::cost::CostModel;
use clanbft_types::{Micros, PartyId};

/// A protocol message: cloneable and able to report its wire size.
///
/// `wire_bytes` is what the bandwidth model charges — for synthetic blocks
/// it reports the *declared* payload size rather than the in-memory size
/// (see `clanbft-types::transaction`).
pub trait Message: Clone + std::fmt::Debug + Send + 'static {
    /// Bytes this message occupies on the wire.
    fn wire_bytes(&self) -> usize;

    /// Stable label for per-kind traffic accounting (e.g. `"rbc.echo"`,
    /// `"vote"`). The default lumps everything under one bucket; protocols
    /// override it to get a byte breakdown in `NetStats`.
    fn kind(&self) -> &'static str {
        "msg"
    }
}

/// A deterministic protocol node.
///
/// Handlers receive a [`Ctx`] through which they observe time, send
/// messages, arm timers and charge simulated CPU time. Everything a node
/// does must flow through the context — no wall clocks, no global state —
/// which is what makes runs reproducible and lets the same implementation
/// run on the threaded transport.
pub trait Protocol<M: Message>: Send {
    /// Called once at start-of-run.
    fn on_start(&mut self, ctx: &mut Ctx<M>);

    /// Called for each delivered message.
    fn on_message(&mut self, from: PartyId, msg: M, ctx: &mut Ctx<M>);

    /// What the simulator calls for each delivery: the message is lent, not
    /// given — a multicast is stored once and every recipient reads the
    /// same body. The default clones it into [`Protocol::on_message`]. A
    /// node that can work from the borrow overrides this method and makes
    /// `on_message` a forward to it; a wrapper node must forward it to the
    /// node it wraps, or that node silently falls back to the clone.
    fn on_message_ref(&mut self, from: PartyId, msg: &M, ctx: &mut Ctx<M>) {
        self.on_message(from, msg.clone(), ctx);
    }

    /// Called when a timer armed via [`Ctx::set_timer`] fires.
    fn on_timer(&mut self, token: u64, ctx: &mut Ctx<M>);

    /// Called when the simulator restarts this node after a scheduled
    /// crash (`SimConfig::restart_at`). The process's volatile state is
    /// gone by definition — an implementation that wants to survive must
    /// rebuild itself from durable storage here. The default keeps the
    /// node silent (a restart without recovery support is a fresh,
    /// do-nothing process).
    fn on_restart(&mut self, _ctx: &mut Ctx<M>) {}
}

/// One `send` or `multicast`: a message and its run of recipients.
pub(crate) struct Burst<M> {
    pub msg: M,
    /// `msg.wire_bytes()`, taken once however many recipients there are.
    pub bytes: usize,
    /// End of this burst's recipients in [`Outputs::targets`] (they start
    /// where the previous burst's end).
    pub end: usize,
}

/// What a handler queued: the buffers behind a [`Ctx`]. The simulator
/// keeps one set and hands it to every invocation, so steady-state
/// handlers queue messages and timers without touching the allocator.
pub(crate) struct Outputs<M> {
    /// Bursts in emission order.
    pub bursts: Vec<Burst<M>>,
    /// Recipients of all bursts, concatenated.
    pub targets: Vec<PartyId>,
    /// `(delay, token)` timers to arm when the handler returns.
    pub timers: Vec<(Micros, u64)>,
}

impl<M> Default for Outputs<M> {
    fn default() -> Self {
        Outputs {
            bursts: Vec::new(),
            targets: Vec::new(),
            timers: Vec::new(),
        }
    }
}

impl<M> Outputs<M> {
    /// Empties the buffers, keeping their capacity.
    pub(crate) fn clear(&mut self) {
        self.bursts.clear();
        self.targets.clear();
        self.timers.clear();
    }
}

/// The per-invocation context handed to protocol handlers.
pub struct Ctx<'a, M: Message> {
    party: PartyId,
    now: Micros,
    charged: Micros,
    cost: &'a CostModel,
    pub(crate) out: Outputs<M>,
}

impl<'a, M: Message> Ctx<'a, M> {
    /// Builds a context for one handler invocation starting at `now`.
    pub fn new(party: PartyId, now: Micros, cost: &'a CostModel) -> Ctx<'a, M> {
        Ctx::with_outputs(party, now, cost, Outputs::default())
    }

    /// Like [`Ctx::new`], queueing into the (empty) recycled buffers `out`.
    pub(crate) fn with_outputs(
        party: PartyId,
        now: Micros,
        cost: &'a CostModel,
        out: Outputs<M>,
    ) -> Ctx<'a, M> {
        Ctx {
            party,
            now,
            charged: Micros::ZERO,
            cost,
            out,
        }
    }

    /// This node's party id.
    pub fn party(&self) -> PartyId {
        self.party
    }

    /// Current simulated time, *including* CPU time charged so far in this
    /// handler — matching a real single-threaded process, work done after an
    /// expensive verification observes a later clock.
    pub fn now(&self) -> Micros {
        self.now + self.charged
    }

    /// The cost model, for handlers that charge composite operations.
    pub fn cost(&self) -> &CostModel {
        self.cost
    }

    /// Charges `amount` of simulated CPU time to this node.
    pub fn charge(&mut self, amount: Micros) {
        self.charged += amount;
    }

    /// Total CPU time charged in this invocation.
    pub fn charged(&self) -> Micros {
        self.charged
    }

    /// Queues `msg` for delivery to `to` (loopback allowed).
    pub fn send(&mut self, to: PartyId, msg: M) {
        self.multicast([to], msg);
    }

    /// Queues `msg` to every party in `targets`, in that order. One queue
    /// entry whatever the fan-out, and on the wire one stored message: the
    /// simulator lends every recipient the same body.
    pub fn multicast(&mut self, targets: impl IntoIterator<Item = PartyId>, msg: M) {
        let start = self.out.targets.len();
        self.out.targets.extend(targets);
        let end = self.out.targets.len();
        if end > start {
            let bytes = msg.wire_bytes();
            self.out.bursts.push(Burst { msg, bytes, end });
        }
    }

    /// Arms a timer to fire `delay` after the handler completes, delivering
    /// `token` to [`Protocol::on_timer`].
    pub fn set_timer(&mut self, delay: Micros, token: u64) {
        self.out.timers.push((delay, token));
    }

    /// Drains the queued messages as a flat `(destination, message)` list,
    /// multicasts expanded in order.
    ///
    /// For interposers (the adversary harness) that run an inner node
    /// against a scratch context and then decide per message whether to
    /// forward, transform or drop it before re-queueing on the real one.
    pub fn take_outbox(&mut self) -> Vec<(PartyId, M)> {
        let mut flat = Vec::with_capacity(self.out.targets.len());
        let mut start = 0;
        for Burst { msg, end, .. } in self.out.bursts.drain(..) {
            let (last, rest) = self.out.targets[start..end]
                .split_last()
                .expect("bursts are never empty");
            flat.extend(rest.iter().map(|&to| (to, msg.clone())));
            flat.push((*last, msg));
            start = end;
        }
        self.out.targets.clear();
        flat
    }

    /// Drains the queued `(delay, token)` timers (see [`Ctx::take_outbox`]).
    pub fn take_timers(&mut self) -> Vec<(Micros, u64)> {
        std::mem::take(&mut self.out.timers)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Clone, Debug)]
    struct Ping;

    impl Message for Ping {
        fn wire_bytes(&self) -> usize {
            8
        }
    }

    #[test]
    fn charging_advances_now() {
        let cost = CostModel::default();
        let mut ctx: Ctx<'_, Ping> = Ctx::new(PartyId(0), Micros(100), &cost);
        assert_eq!(ctx.now(), Micros(100));
        ctx.charge(Micros(50));
        assert_eq!(ctx.now(), Micros(150));
        assert_eq!(ctx.charged(), Micros(50));
    }

    #[test]
    fn multicast_clones_to_all() {
        let cost = CostModel::free();
        let mut ctx: Ctx<'_, Ping> = Ctx::new(PartyId(0), Micros(0), &cost);
        ctx.send(PartyId(7), Ping);
        ctx.multicast((0..3).map(PartyId), Ping);
        ctx.multicast(std::iter::empty(), Ping);
        // One burst per call, none for an empty recipient list; interposers
        // still see a flat per-recipient list in emission order.
        assert_eq!(ctx.out.bursts.len(), 2);
        let flat: Vec<PartyId> = ctx.take_outbox().into_iter().map(|(to, _)| to).collect();
        assert_eq!(flat, [7, 0, 1, 2].map(PartyId));
        assert!(ctx.take_outbox().is_empty());
    }

    #[test]
    fn timers_queue() {
        let cost = CostModel::free();
        let mut ctx: Ctx<'_, Ping> = Ctx::new(PartyId(1), Micros(0), &cost);
        ctx.set_timer(Micros(500), 7);
        assert_eq!(ctx.take_timers(), vec![(Micros(500), 7)]);
    }
}
