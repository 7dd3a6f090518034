//! [`AdversaryNode`]: wraps any [`Protocol`] node so a [`Behavior`] can
//! intercept its traffic while the inner state machine stays byte-for-byte
//! the honest implementation.

use crate::behavior::Behavior;
use clanbft_simnet::protocol::{Ctx, Message, Protocol};
use clanbft_types::PartyId;
use std::marker::PhantomData;
use std::ops::{Deref, DerefMut};

/// A protocol node with an optional Byzantine behaviour bolted between it
/// and the network.
///
/// With no behaviour attached the wrapper delegates directly — zero
/// overhead, identical traffic. With one attached, each handler invocation
/// runs the inner node against a scratch [`Ctx`], then routes the queued
/// sends through [`Behavior::outbound`] (timers and CPU charges pass
/// through unchanged — an attacker cannot cheat the cost model).
///
/// `Deref`s to the inner node so metrics code reads `committed_log` etc.
/// without caring whether a node was wrapped.
pub struct AdversaryNode<M: Message, P: Protocol<M>> {
    inner: P,
    behavior: Option<Box<dyn Behavior<M>>>,
    _msg: PhantomData<fn(M)>,
}

impl<M: Message, P: Protocol<M>> AdversaryNode<M, P> {
    /// Wraps `inner` with no interference.
    pub fn honest(inner: P) -> AdversaryNode<M, P> {
        AdversaryNode {
            inner,
            behavior: None,
            _msg: PhantomData,
        }
    }

    /// Wraps `inner` with `behavior` interposed on all traffic.
    pub fn byzantine(inner: P, behavior: Box<dyn Behavior<M>>) -> AdversaryNode<M, P> {
        AdversaryNode {
            inner,
            behavior: Some(behavior),
            _msg: PhantomData,
        }
    }

    /// Whether a behaviour is attached.
    pub fn is_byzantine(&self) -> bool {
        self.behavior.is_some()
    }

    /// The wrapped node.
    pub fn inner(&self) -> &P {
        &self.inner
    }

    /// Runs `f` on the inner node against a scratch context, then forwards
    /// charges and timers verbatim and sends through the behaviour.
    fn intercepted(&mut self, ctx: &mut Ctx<M>, f: impl FnOnce(&mut P, &mut Ctx<M>)) {
        let cost = *ctx.cost();
        let mut scratch: Ctx<M> = Ctx::new(ctx.party(), ctx.now(), &cost);
        f(&mut self.inner, &mut scratch);
        ctx.charge(scratch.charged());
        for (delay, token) in scratch.take_timers() {
            ctx.set_timer(delay, token);
        }
        let behavior = self
            .behavior
            .as_mut()
            .expect("intercepted without behavior");
        let now = ctx.now();
        let mut rewritten: Vec<(PartyId, M)> = Vec::new();
        for (to, msg) in scratch.take_outbox() {
            behavior.outbound(to, msg, now, &mut |t, m| rewritten.push((t, m)));
        }
        for (to, msg) in rewritten {
            ctx.send(to, msg);
        }
    }
}

impl<M: Message, P: Protocol<M>> Deref for AdversaryNode<M, P> {
    type Target = P;

    fn deref(&self) -> &P {
        &self.inner
    }
}

impl<M: Message, P: Protocol<M>> DerefMut for AdversaryNode<M, P> {
    fn deref_mut(&mut self) -> &mut P {
        &mut self.inner
    }
}

impl<M: Message, P: Protocol<M>> Protocol<M> for AdversaryNode<M, P> {
    fn on_start(&mut self, ctx: &mut Ctx<M>) {
        if self.behavior.is_none() {
            self.inner.on_start(ctx);
        } else {
            self.intercepted(ctx, |inner, scratch| inner.on_start(scratch));
        }
    }

    fn on_message(&mut self, from: PartyId, msg: M, ctx: &mut Ctx<M>) {
        self.on_message_ref(from, &msg, ctx);
    }

    // Like `on_restart` below, this needs the explicit forward: under the
    // trait default every honest node would get a clone of each delivery.
    // Only a behaviour, which may rewrite the message, takes a copy.
    fn on_message_ref(&mut self, from: PartyId, msg: &M, ctx: &mut Ctx<M>) {
        match self.behavior.as_mut() {
            None => self.inner.on_message_ref(from, msg, ctx),
            Some(b) => {
                let Some(msg) = b.inbound(from, msg.clone(), ctx.now()) else {
                    return;
                };
                self.intercepted(ctx, |inner, scratch| inner.on_message(from, msg, scratch));
            }
        }
    }

    fn on_timer(&mut self, token: u64, ctx: &mut Ctx<M>) {
        if self.behavior.is_none() {
            self.inner.on_timer(token, ctx);
        } else {
            self.intercepted(ctx, |inner, scratch| inner.on_timer(token, scratch));
        }
    }

    // The trait default is a no-op; an explicit forward is required or a
    // wrapped node would never see its restart.
    fn on_restart(&mut self, ctx: &mut Ctx<M>) {
        if self.behavior.is_none() {
            self.inner.on_restart(ctx);
        } else {
            self.intercepted(ctx, |inner, scratch| inner.on_restart(scratch));
        }
    }
}
