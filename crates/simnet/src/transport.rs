//! A live threaded in-process transport.
//!
//! Runs the *same* [`Protocol`] state machines as the discrete-event
//! simulator, but on real OS threads with real (in-process) message passing
//! and wall-clock timers. Used by the live examples to demonstrate that the
//! protocol implementations are not simulator artifacts. No latency or
//! bandwidth shaping is applied — this is a functional transport, not a
//! measurement substrate.

use crate::cost::CostModel;
use crate::protocol::{Ctx, Message, Protocol};
use clanbft_types::{Micros, PartyId};
use std::collections::BinaryHeap;
use std::sync::mpsc::{channel, RecvTimeoutError, Sender};
use std::time::{Duration, Instant};

enum Envelope<M> {
    Msg { from: PartyId, msg: M },
    Stop,
}

struct PendingTimer {
    at: Instant,
    token: u64,
}

impl PartialEq for PendingTimer {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.token == other.token
    }
}
impl Eq for PendingTimer {}
impl PartialOrd for PendingTimer {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for PendingTimer {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other.at.cmp(&self.at) // min-heap
    }
}

/// Runs `nodes` on dedicated threads for `duration`, then returns their
/// final states (indexed by party id, like the simulator).
///
/// CPU-time charges from handlers are ignored — real time is real.
///
/// # Panics
///
/// Panics if a node thread panics.
pub fn run_live<M, P>(nodes: Vec<P>, duration: Duration) -> Vec<P>
where
    M: Message,
    P: Protocol<M> + 'static,
{
    let n = nodes.len();
    // `std::sync::mpsc::channel` is unbounded and supports `recv_timeout`,
    // matching the semantics the transport needs: sends never block, and a
    // node can wait on its inbox with a timer-driven deadline. Unlike a
    // crossbeam receiver an mpsc receiver is single-consumer, which is
    // exactly the topology here — each receiver moves into its node thread.
    let mut senders: Vec<Sender<Envelope<M>>> = Vec::with_capacity(n);
    let mut receivers = Vec::with_capacity(n);
    for _ in 0..n {
        let (tx, rx) = channel();
        senders.push(tx);
        receivers.push(rx);
    }
    let start = Instant::now();
    let cost = CostModel::free();

    let mut handles = Vec::with_capacity(n);
    for (i, (mut node, rx)) in nodes.into_iter().zip(receivers).enumerate() {
        let me = PartyId(i as u32);
        let peers = senders.clone();
        handles.push(std::thread::spawn(move || {
            let mut timers: BinaryHeap<PendingTimer> = BinaryHeap::new();
            let now_us = |start: Instant| Micros(start.elapsed().as_micros() as u64);

            let flush =
                |node: &mut P, timers: &mut BinaryHeap<PendingTimer>, mut ctx: Ctx<'_, M>| {
                    let base = Instant::now();
                    for (delay, token) in ctx.take_timers() {
                        timers.push(PendingTimer {
                            at: base + Duration::from_micros(delay.0),
                            token,
                        });
                    }
                    for (to, msg) in ctx.take_outbox() {
                        // A vanished peer just means shutdown is racing us.
                        let _ = peers[to.idx()].send(Envelope::Msg { from: me, msg });
                    }
                    let _ = node;
                };

            let mut ctx = Ctx::new(me, now_us(start), &cost);
            node.on_start(&mut ctx);
            flush(&mut node, &mut timers, ctx);

            loop {
                // Wait for the next message or the next timer, whichever
                // comes first.
                let timeout = timers
                    .peek()
                    .map(|t| t.at.saturating_duration_since(Instant::now()))
                    .unwrap_or(Duration::from_millis(50));
                match rx.recv_timeout(timeout) {
                    Ok(Envelope::Stop) => break,
                    Ok(Envelope::Msg { from, msg }) => {
                        let mut ctx = Ctx::new(me, now_us(start), &cost);
                        node.on_message(from, msg, &mut ctx);
                        flush(&mut node, &mut timers, ctx);
                    }
                    Err(RecvTimeoutError::Timeout) => {}
                    Err(RecvTimeoutError::Disconnected) => break,
                }
                while let Some(t) = timers.peek() {
                    if t.at > Instant::now() {
                        break;
                    }
                    let token = timers.pop().expect("peeked").token;
                    let mut ctx = Ctx::new(me, now_us(start), &cost);
                    node.on_timer(token, &mut ctx);
                    flush(&mut node, &mut timers, ctx);
                }
            }
            node
        }));
    }

    std::thread::sleep(duration);
    for tx in &senders {
        let _ = tx.send(Envelope::Stop);
    }
    handles
        .into_iter()
        .map(|h| h.join().expect("node thread panicked"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Clone, Debug)]
    enum Gossip {
        Rumor(u64),
    }

    impl Message for Gossip {
        fn wire_bytes(&self) -> usize {
            16
        }
    }

    struct GossipNode {
        n: u32,
        heard: Vec<u64>,
        origin: bool,
    }

    impl Protocol<Gossip> for GossipNode {
        fn on_start(&mut self, ctx: &mut Ctx<Gossip>) {
            if self.origin {
                ctx.multicast((0..self.n).map(PartyId), Gossip::Rumor(42));
            }
        }
        fn on_message(&mut self, _from: PartyId, Gossip::Rumor(v): Gossip, _ctx: &mut Ctx<Gossip>) {
            self.heard.push(v);
        }
        fn on_timer(&mut self, _token: u64, _ctx: &mut Ctx<Gossip>) {}
    }

    #[test]
    fn rumor_reaches_every_thread() {
        let n = 5u32;
        let nodes: Vec<GossipNode> = (0..n)
            .map(|i| GossipNode {
                n,
                heard: vec![],
                origin: i == 0,
            })
            .collect();
        let done = run_live(nodes, Duration::from_millis(200));
        for (i, node) in done.iter().enumerate() {
            assert_eq!(node.heard, vec![42], "node {i}");
        }
    }

    struct TimerNode {
        fired: Vec<u64>,
    }

    impl Protocol<Gossip> for TimerNode {
        fn on_start(&mut self, ctx: &mut Ctx<Gossip>) {
            ctx.set_timer(Micros::from_millis(20), 1);
            ctx.set_timer(Micros::from_millis(60), 2);
        }
        fn on_message(&mut self, _f: PartyId, _m: Gossip, _c: &mut Ctx<Gossip>) {}
        fn on_timer(&mut self, token: u64, _ctx: &mut Ctx<Gossip>) {
            self.fired.push(token);
        }
    }

    #[test]
    fn timers_fire_in_order() {
        let done = run_live(
            vec![TimerNode { fired: vec![] }],
            Duration::from_millis(200),
        );
        assert_eq!(done[0].fired, vec![1, 2]);
    }
}
