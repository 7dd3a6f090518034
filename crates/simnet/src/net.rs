//! The discrete-event simulator core.
//!
//! Each node runs a [`Protocol`] state machine. Outgoing messages pass
//! through the sender's uplink queue (serialization at the fan-out-aware
//! effective bandwidth), then propagate with Table 1 one-way delay plus
//! jitter, then wait in the receiver's single-threaded CPU queue where the
//! handler's charged cost is accounted. Before GST an adversary may add
//! arbitrary (bounded, seeded) extra delay; link partitions hold messages
//! until they heal (TCP retransmission semantics — messages are delayed,
//! never lost, matching the paper's reliable-link assumption).

use crate::bandwidth::BandwidthModel;
use crate::cost::CostModel;
use crate::event::{EventQueue, Record};
use crate::protocol::{Burst, Ctx, Message, Outputs, Protocol};
use crate::regions::LatencyMatrix;
use clanbft_crypto::ClanRng;
use clanbft_profiler as prof;
use clanbft_telemetry::{Event, Telemetry};
use clanbft_types::{Micros, PartyId};
use std::collections::BTreeMap;

/// Messages at or below this size ride the control lane (their own TCP
/// streams); larger ones are bulk block data sharing the uplink's bulk
/// capacity.
const CONTROL_LANE_MAX_BYTES: usize = 8 * 1024;

/// A temporary bidirectional link cut.
#[derive(Clone, Copy, Debug)]
pub struct Partition {
    /// One endpoint.
    pub a: PartyId,
    /// Other endpoint.
    pub b: PartyId,
    /// Cut start (inclusive).
    pub from: Micros,
    /// Cut end (exclusive); messages in flight are delivered after this.
    pub until: Micros,
}

/// Simulator configuration.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Node placement and propagation delays.
    pub latency: LatencyMatrix,
    /// Uplink bandwidth model.
    pub bandwidth: BandwidthModel,
    /// Host CPU cost model.
    pub cost: CostModel,
    /// Multiplicative latency jitter fraction (delay is scaled by a seeded
    /// uniform factor in `[1−j, 1+j]`).
    pub jitter_frac: f64,
    /// RNG seed for jitter and the pre-GST adversary.
    pub seed: u64,
    /// Global stabilization time; before it the adversary adds extra delay.
    pub gst: Micros,
    /// Maximum extra delay the pre-GST adversary may add per message.
    pub pre_gst_extra_max: Micros,
    /// Per-node bulk fan-out degree, the `k` of the bandwidth model. Set by
    /// the harness from the protocol's dissemination topology.
    pub bulk_fanout: Vec<usize>,
    /// Per-node crash times (`None` = never crashes). A crashed node sends
    /// and processes nothing from its crash time onward — until a scheduled
    /// restart, if any.
    pub crash_at: Vec<Option<Micros>>,
    /// Per-node restart times (`None` = stays down). At its restart time a
    /// crashed node gets [`Protocol::on_restart`]: volatile state is *not*
    /// reset by the simulator — the protocol implementation must rebuild
    /// itself from durable storage there (a real process would boot with an
    /// empty heap). Must be strictly after the node's crash time.
    pub restart_at: Vec<Option<Micros>>,
    /// Temporary link cuts.
    pub partitions: Vec<Partition>,
    /// Telemetry sink for network-level events (drops, partition holds).
    /// Defaults to the disabled handle: one branch per event site.
    pub telemetry: Telemetry,
}

impl SimConfig {
    /// A benign configuration: `n` nodes spread across the paper's five
    /// regions, default bandwidth/cost models, GST at time zero, no faults,
    /// bulk fan-out `n − 1` (full-mesh dissemination).
    pub fn benign(n: usize, seed: u64) -> SimConfig {
        SimConfig {
            latency: LatencyMatrix::evenly_distributed(n),
            bandwidth: BandwidthModel::default(),
            cost: CostModel::default(),
            jitter_frac: 0.03,
            seed,
            gst: Micros::ZERO,
            pre_gst_extra_max: Micros::ZERO,
            bulk_fanout: vec![n.saturating_sub(1).max(1); n],
            crash_at: vec![None; n],
            restart_at: vec![None; n],
            partitions: Vec::new(),
            telemetry: Telemetry::null(),
        }
    }

    /// Number of nodes.
    pub fn n(&self) -> usize {
        self.latency.n()
    }
}

/// How a burst's copies leave the sender.
#[derive(Clone, Copy)]
enum Lane {
    /// Block data: every copy departs when the invocation's whole bulk
    /// output has been serialized (the time computed in `absorb`; `None`
    /// when nothing bulk leaves the node, i.e. loopback only).
    Bulk(Option<Micros>),
    /// Small messages ride their own TCP streams, not head-of-line blocked
    /// behind block data: copies serialize one after another, each taking
    /// this long.
    Control(Micros),
}

/// What the calendar queue orders: the node an event is for, and what
/// happens there. A delivery names its message by slot in the simulator's
/// [`InFlight`] slab rather than carrying it, and a timer its token by slot
/// in [`Timers`], so an event is the same two words whatever the protocol's
/// message type — half of a 16-byte calendar record.
#[derive(Clone, Copy)]
struct SimEvent {
    node: PartyId,
    /// An [`Action`]: its kind in the top two bits, its slot in the rest.
    action: u32,
}

/// What a [`SimEvent`] does at its node.
#[derive(Clone, Copy)]
enum Action {
    /// Deliver the message in this [`InFlight`] slot.
    Deliver(u32),
    /// Fire the timer whose token is in this [`Timers`] slot.
    Timer(u32),
    Restart,
}

/// Slot numbers an event can carry.
const SLOT_BITS: u32 = 30;

impl SimEvent {
    fn new(node: PartyId, action: Action) -> SimEvent {
        let (kind, slot) = match action {
            Action::Deliver(slot) => (0, slot),
            Action::Timer(slot) => (1, slot),
            Action::Restart => (2, 0),
        };
        assert!(slot >> SLOT_BITS == 0, "under 2^30 slots in use at once");
        SimEvent {
            node,
            action: kind << SLOT_BITS | slot,
        }
    }

    fn action(self) -> Action {
        let slot = self.action & ((1 << SLOT_BITS) - 1);
        match self.action >> SLOT_BITS {
            0 => Action::Deliver(slot),
            1 => Action::Timer(slot),
            _ => Action::Restart,
        }
    }
}

// One record is written into a calendar bucket, sorted there and read back
// per delivered copy: anything message-sized belongs in the slab.
const _: () = assert!(std::mem::size_of::<SimEvent>() == 8);
const _: () = assert!(std::mem::size_of::<Record<SimEvent>>() == 16);
// The sender rides in what was padding beside `copies`.
const _: () = assert!(std::mem::size_of::<Stored<u64>>() == 40);

/// One burst's message while copies of it are on the wire.
struct Stored<M> {
    msg: M,
    /// The sender: a property of the burst, so no copy's event carries it.
    src: PartyId,
    /// `msg.wire_bytes()` and `msg.kind()`, taken once per burst: a dropped
    /// copy is accounted from here, not by asking the message again.
    bytes: usize,
    kind: &'static str,
    /// Copies neither delivered nor dropped yet.
    copies: u32,
}

/// Index-addressed storage whose freed slots are reused, most recently
/// freed first: it grows to the peak number of entries in use, and in
/// steady state an insert does not touch the allocator.
struct Slab<T> {
    slots: Vec<T>,
    free: Vec<u32>,
}

impl<T> Slab<T> {
    fn new() -> Slab<T> {
        Slab {
            slots: Vec::new(),
            free: Vec::new(),
        }
    }

    fn insert(&mut self, value: T) -> u32 {
        match self.free.pop() {
            Some(slot) => {
                self.slots[slot as usize] = value;
                slot
            }
            None => {
                let slot = u32::try_from(self.slots.len()).expect("under 2^32 slots");
                self.slots.push(value);
                slot
            }
        }
    }
}

/// The messages in flight, stored once per burst however many recipients
/// it has (a slot is `None` while it is free).
type InFlight<M> = Slab<Option<Stored<M>>>;

impl<M> InFlight<M> {
    fn get(&self, slot: u32) -> &Stored<M> {
        self.slots[slot as usize]
            .as_ref()
            .expect("a queued delivery names a live slot")
    }

    /// One copy leaves the wire, delivered or dropped; the last one frees
    /// the slot.
    fn release(&mut self, slot: u32) {
        let entry = &mut self.slots[slot as usize];
        let stored = entry.as_mut().expect("a queued delivery names a live slot");
        stored.copies -= 1;
        if stored.copies == 0 {
            *entry = None;
            self.free.push(slot);
        }
    }
}

/// Tokens of the timers armed and not yet fired.
type Timers = Slab<u64>;

impl Timers {
    /// The token in `slot`, which is free again.
    fn fire(&mut self, slot: u32) -> u64 {
        self.free.push(slot);
        self.slots[slot as usize]
    }
}

/// Aggregate traffic statistics, per node and total.
#[derive(Clone, Debug, Default)]
pub struct NetStats {
    /// Bytes placed on the wire by each node (loopback excluded).
    pub sent_bytes: Vec<u64>,
    /// Messages placed on the wire by each node (loopback excluded).
    pub sent_msgs: Vec<u64>,
    /// Messages delivered to handlers.
    pub delivered_msgs: u64,
    /// Messages lost to a crashed endpoint (sender crashed before the wire,
    /// or receiver crashed before delivery).
    pub dropped_msgs: u64,
    /// Wire bytes of the dropped messages.
    pub dropped_bytes: u64,
    /// Messages held by a partition (delivered late after healing — this
    /// sim's partitions delay, they never lose).
    pub partitioned_msgs: u64,
    /// Wire bytes per [`Message::kind`] label, across all senders.
    pub bytes_by_kind: BTreeMap<&'static str, u64>,
    /// Events popped off the queue (deliveries + timers, dropped ones
    /// included). The numerator of the `sim_events_per_sec` host metric.
    pub handled_events: u64,
    /// Simulated timestamp of the last popped event. `run_until` clamps
    /// `now` to its deadline even when the queue drained long before, so
    /// rate metrics divide by this actually-busy span instead.
    pub last_event_at: Micros,
}

impl NetStats {
    /// Total bytes sent across all nodes.
    pub fn total_bytes(&self) -> u64 {
        self.sent_bytes.iter().sum()
    }

    /// Bytes sent under one kind label (0 if never seen).
    pub fn kind_bytes(&self, kind: &str) -> u64 {
        *self.bytes_by_kind.get(kind).unwrap_or(&0)
    }
}

/// The discrete-event simulator over a homogeneous node type `P`.
///
/// Heterogeneous tribes (Byzantine nodes, crash dummies) are modelled by
/// making `P` an enum dispatching to the variant behaviours.
pub struct Simulator<M: Message, P: Protocol<M>> {
    cfg: SimConfig,
    nodes: Vec<P>,
    queue: EventQueue<SimEvent>,
    in_flight: InFlight<M>,
    timers: Timers,
    now: Micros,
    /// Bulk-lane uplink availability per node (block-sized messages).
    uplink_free: Vec<Micros>,
    /// Control-lane uplink availability per node. Small messages (echoes,
    /// votes, certificates, vertex metadata) ride separate TCP streams in
    /// real deployments and are not head-of-line blocked behind megabytes
    /// of block data; modelling them through the same FIFO would overstate
    /// round times for block-heavy senders.
    ctrl_free: Vec<Micros>,
    /// Precomputed effective uplink bytes/sec per node (the bulk fan-out is
    /// static, so the power law is evaluated once).
    uplink_bps: Vec<f64>,
    busy_until: Vec<Micros>,
    rng: ClanRng,
    stats: NetStats,
    started: bool,
    /// The handler-output buffers, lent to each [`Ctx`] in turn.
    outputs: Outputs<M>,
}

impl<M: Message, P: Protocol<M>> Simulator<M, P> {
    /// Creates a simulator over `nodes` (indexed by party id).
    ///
    /// # Panics
    ///
    /// Panics if the node count disagrees with the config.
    pub fn new(cfg: SimConfig, nodes: Vec<P>) -> Simulator<M, P> {
        let n = cfg.n();
        assert_eq!(nodes.len(), n, "node count must match config");
        assert_eq!(
            cfg.bulk_fanout.len(),
            n,
            "bulk_fanout table must cover all nodes"
        );
        assert_eq!(cfg.crash_at.len(), n, "crash table must cover all nodes");
        assert_eq!(
            cfg.restart_at.len(),
            n,
            "restart table must cover all nodes"
        );
        for i in 0..n {
            if let Some(r) = cfg.restart_at[i] {
                let c = cfg.crash_at[i].expect("restart scheduled without a crash");
                assert!(r > c, "node {i}: restart {r} must be after crash {c}");
            }
        }
        Simulator {
            rng: ClanRng::seed_from_u64(cfg.seed),
            stats: NetStats {
                sent_bytes: vec![0; n],
                sent_msgs: vec![0; n],
                ..NetStats::default()
            },
            uplink_free: vec![Micros::ZERO; n],
            ctrl_free: vec![Micros::ZERO; n],
            uplink_bps: cfg
                .bulk_fanout
                .iter()
                .map(|&k| cfg.bandwidth.effective(k))
                .collect(),
            busy_until: vec![Micros::ZERO; n],
            queue: EventQueue::new(),
            in_flight: Slab::new(),
            timers: Slab::new(),
            now: Micros::ZERO,
            nodes,
            cfg,
            started: false,
            outputs: Outputs::default(),
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> Micros {
        self.now
    }

    /// Traffic statistics so far.
    pub fn stats(&self) -> &NetStats {
        &self.stats
    }

    /// Immutable access to a node's state machine.
    pub fn node(&self, p: PartyId) -> &P {
        &self.nodes[p.idx()]
    }

    /// Mutable access to a node's state machine (harness injection points).
    pub fn node_mut(&mut self, p: PartyId) -> &mut P {
        &mut self.nodes[p.idx()]
    }

    /// Iterates over all node state machines.
    pub fn nodes(&self) -> impl Iterator<Item = &P> {
        self.nodes.iter()
    }

    /// The simulator configuration.
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    fn crashed(&self, p: PartyId, at: Micros) -> bool {
        let down_since = match self.cfg.crash_at[p.idx()] {
            None => return false,
            Some(t) => t,
        };
        if at < down_since {
            return false;
        }
        // Inside the crash window unless a restart has already happened.
        match self.cfg.restart_at[p.idx()] {
            Some(r) => at < r,
            None => true,
        }
    }

    /// Runs `on_start` on every live node at time zero and schedules the
    /// configured restarts.
    pub fn start(&mut self) {
        assert!(!self.started, "start may only be called once");
        self.started = true;
        for i in 0..self.nodes.len() {
            if let Some(r) = self.cfg.restart_at[i] {
                self.queue
                    .push(r, SimEvent::new(PartyId(i as u32), Action::Restart));
            }
        }
        for i in 0..self.nodes.len() {
            let p = PartyId(i as u32);
            if self.crashed(p, Micros::ZERO) {
                continue;
            }
            let cost = self.cfg.cost;
            let mut ctx = self.ctx(p, Micros::ZERO, &cost);
            self.nodes[i].on_start(&mut ctx);
            self.absorb(p, ctx);
        }
    }

    /// Processes one event; returns `false` when the queue is empty.
    pub fn step(&mut self) -> bool {
        let (at, ev) = match self.queue.pop() {
            None => return false,
            Some(e) => e,
        };
        self.now = at;
        self.stats.handled_events += 1;
        self.stats.last_event_at = at;
        let node = ev.node;
        match ev.action() {
            Action::Deliver(slot) => {
                let dst = node;
                // No per-delivery scope: delivery happens millions of times
                // per run and even a cheap scope would dominate its cost.
                // The run loop (`sim.run` in `run_until`) owns dispatch
                // time; nested stages (rbc, consensus, …) carve out theirs.
                if self.crashed(dst, at) {
                    let Stored {
                        src, bytes, kind, ..
                    } = *self.in_flight.get(slot);
                    self.in_flight.release(slot);
                    self.drop_copy(src, dst, kind, bytes, at);
                    return true;
                }
                let start = self.busy_until[dst.idx()].max(at);
                let cost = self.cfg.cost;
                let mut ctx = self.ctx(dst, start, &cost);
                ctx.charge(self.cfg.cost.per_msg());
                self.stats.delivered_msgs += 1;
                let Stored { msg, src, .. } = self.in_flight.get(slot);
                self.nodes[dst.idx()].on_message_ref(*src, msg, &mut ctx);
                self.in_flight.release(slot);
                self.busy_until[dst.idx()] = start + ctx.charged();
                self.absorb(dst, ctx);
            }
            Action::Timer(slot) => {
                let _prof = prof::scope("sim.timer");
                let token = self.timers.fire(slot);
                if self.crashed(node, at) {
                    return true;
                }
                let start = self.busy_until[node.idx()].max(at);
                let cost = self.cfg.cost;
                let mut ctx = self.ctx(node, start, &cost);
                self.nodes[node.idx()].on_timer(token, &mut ctx);
                self.busy_until[node.idx()] = start + ctx.charged();
                self.absorb(node, ctx);
            }
            Action::Restart => {
                let _prof = prof::scope("sim.restart");
                // The node was dead until this instant; whatever CPU debt it
                // carried died with the process.
                self.busy_until[node.idx()] = at;
                let cost = self.cfg.cost;
                let mut ctx = self.ctx(node, at, &cost);
                self.nodes[node.idx()].on_restart(&mut ctx);
                self.busy_until[node.idx()] = at + ctx.charged();
                self.absorb(node, ctx);
            }
        }
        true
    }

    /// Runs until the queue drains or simulated time exceeds `deadline`.
    pub fn run_until(&mut self, deadline: Micros) {
        // One scope for the whole drive loop: every nested stage (rbc,
        // consensus, dag, …) lands under `sim.run`, and its *self* time is
        // exactly the dispatch machinery (queue pops, crash checks, message
        // fan-out) that has no finer-grained scope of its own.
        let _prof = prof::scope("sim.run");
        if !self.started {
            self.start();
        }
        while let Some(t) = self.queue.peek_time() {
            if t > deadline {
                break;
            }
            self.step();
        }
        if self.now < deadline {
            self.now = deadline;
        }
    }

    /// Runs until the event queue is fully drained (benign finite runs).
    pub fn run_to_quiescence(&mut self) {
        let _prof = prof::scope("sim.run");
        if !self.started {
            self.start();
        }
        while self.step() {}
    }

    /// A context for one handler invocation, queueing into the simulator's
    /// recycled output buffers ([`Simulator::absorb`] takes them back).
    fn ctx<'c>(&mut self, party: PartyId, now: Micros, cost: &'c CostModel) -> Ctx<'c, M> {
        Ctx::with_outputs(party, now, cost, std::mem::take(&mut self.outputs))
    }

    /// Collects a handler's outputs: transmits its messages and arms its
    /// timers, all anchored at the handler's completion time.
    ///
    /// Bulk messages emitted by one handler invocation (a block multicast)
    /// are treated as *concurrent* streams sharing the uplink: they all
    /// depart when the whole burst has been serialized, like parallel TCP
    /// streams fair-sharing a NIC, rather than one-after-another. Sequential
    /// unicast semantics would spread arrivals across the full
    /// serialization window and trigger spurious block pulls at receivers
    /// whose copy is "still in flight".
    fn absorb(&mut self, from: PartyId, ctx: Ctx<'_, M>) {
        let completion = ctx.now();
        let mut out = ctx.out;
        if out.bursts.is_empty() && out.timers.is_empty() {
            // The handler queued nothing (most deliveries move a counter).
            self.outputs = out;
            return;
        }
        for (delay, token) in out.timers.drain(..) {
            let timer = Action::Timer(self.timers.insert(token));
            self.queue
                .push(completion + delay, SimEvent::new(from, timer));
        }
        // First pass: total bulk bytes this invocation puts on the wire.
        let mut bulk_bytes = 0usize;
        let mut start = 0;
        for burst in &out.bursts {
            if burst.bytes > CONTROL_LANE_MAX_BYTES {
                bulk_bytes += burst.bytes * on_wire(&out.targets[start..burst.end], from);
            }
            start = burst.end;
        }
        let bulk_departure = if bulk_bytes > 0 {
            let ser = Micros::from_secs_f64(bulk_bytes as f64 / self.uplink_bps[from.idx()]);
            let d = self.uplink_free[from.idx()].max(completion) + ser;
            self.uplink_free[from.idx()] = d;
            Some(d)
        } else {
            None
        };
        let mut start = 0;
        for burst in out.bursts.drain(..) {
            let end = burst.end;
            self.transmit(
                from,
                &out.targets[start..end],
                burst,
                completion,
                bulk_departure,
            );
            start = end;
        }
        out.clear();
        self.outputs = out;
    }

    /// Puts one burst on the wire: size, kind and the sender-side accounting
    /// are settled once and the message is stored once; only the lane
    /// bookkeeping, the jitter draw and the queue push happen per recipient
    /// (in recipient order — the order the seeded draws and the event
    /// sequence depend on).
    fn transmit(
        &mut self,
        src: PartyId,
        targets: &[PartyId],
        burst: Burst<M>,
        at: Micros,
        bulk_departure: Option<Micros>,
    ) {
        let Burst { msg, bytes, .. } = burst;
        let kind = msg.kind();
        if self.crashed(src, at) {
            for &dst in targets {
                self.drop_copy(src, dst, kind, bytes, at);
            }
            return;
        }
        let wire = on_wire(targets, src) as u64;
        if wire > 0 {
            self.stats.sent_bytes[src.idx()] += bytes as u64 * wire;
            self.stats.sent_msgs[src.idx()] += wire;
            *self.stats.bytes_by_kind.entry(kind).or_insert(0) += bytes as u64 * wire;
        }
        let lane = if bytes > CONTROL_LANE_MAX_BYTES {
            Lane::Bulk(bulk_departure)
        } else {
            Lane::Control(Micros::from_secs_f64(
                bytes as f64 / self.uplink_bps[src.idx()],
            ))
        };
        let slot = self.in_flight.insert(Some(Stored {
            msg,
            src,
            bytes,
            kind,
            copies: u32::try_from(targets.len()).expect("under 2^32 recipients"),
        }));
        for &dst in targets {
            self.transmit_one(src, dst, slot, at, lane);
        }
    }

    fn transmit_one(&mut self, src: PartyId, dst: PartyId, slot: u32, at: Micros, lane: Lane) {
        if src == dst {
            // Loopback: no wire, no uplink; deliver after a scheduling tick.
            self.queue
                .push(at, SimEvent::new(dst, Action::Deliver(slot)));
            return;
        }
        let departure = match lane {
            Lane::Bulk(departure) => departure.expect("bulk bytes were counted in absorb"),
            Lane::Control(ser) => {
                let d = self.ctrl_free[src.idx()].max(at) + ser;
                self.ctrl_free[src.idx()] = d;
                d
            }
        };

        // Propagation with jitter.
        let base = self.cfg.latency.one_way(src, dst);
        let j = self.cfg.jitter_frac;
        let factor = if j > 0.0 {
            self.rng.gen_f64(1.0 - j, 1.0 + j)
        } else {
            1.0
        };
        let prop = Micros((base.0 as f64 * factor).round() as u64);
        let mut arrival = departure + prop;

        // Pre-GST adversary: arbitrary bounded extra delay.
        if departure < self.cfg.gst && self.cfg.pre_gst_extra_max > Micros::ZERO {
            let extra = Micros(self.rng.gen_u64_inclusive(0, self.cfg.pre_gst_extra_max.0));
            arrival += extra;
        }

        // Partitions hold messages until the link heals.
        let mut held_until = None;
        for p in &self.cfg.partitions {
            let cut = (p.a == src && p.b == dst) || (p.a == dst && p.b == src);
            if cut && departure >= p.from && departure < p.until {
                arrival = arrival.max(p.until + prop);
                held_until = Some(held_until.unwrap_or(Micros::ZERO).max(p.until));
            }
        }
        if let Some(until) = held_until {
            self.stats.partitioned_msgs += 1;
            self.cfg
                .telemetry
                .event(departure, src, Event::PartitionHeld { src, dst, until });
        }

        self.queue
            .push(arrival, SimEvent::new(dst, Action::Deliver(slot)));
    }

    /// Accounts one copy lost to a crashed endpoint.
    fn drop_copy(
        &mut self,
        src: PartyId,
        dst: PartyId,
        kind: &'static str,
        bytes: usize,
        at: Micros,
    ) {
        let bytes = bytes as u64;
        self.stats.dropped_msgs += 1;
        self.stats.dropped_bytes += bytes;
        self.cfg.telemetry.event(
            at,
            src,
            Event::MsgDropped {
                src,
                dst,
                kind,
                bytes,
            },
        );
    }
}

/// How many of `targets` are reached over the wire (all but loopback).
fn on_wire(targets: &[PartyId], src: PartyId) -> usize {
    targets.iter().filter(|&&t| t != src).count()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A trivial ping-pong protocol for exercising the simulator.
    #[derive(Clone, Debug)]
    enum PingMsg {
        Ping(u32),
        Pong(u32),
    }

    impl Message for PingMsg {
        fn wire_bytes(&self) -> usize {
            64
        }

        fn kind(&self) -> &'static str {
            match self {
                PingMsg::Ping(_) => "ping",
                PingMsg::Pong(_) => "pong",
            }
        }
    }

    struct PingNode {
        peer: PartyId,
        initiator: bool,
        pongs_seen: Vec<(u32, Micros)>,
        timer_fired_at: Option<Micros>,
    }

    impl Protocol<PingMsg> for PingNode {
        fn on_start(&mut self, ctx: &mut Ctx<PingMsg>) {
            if self.initiator {
                ctx.send(self.peer, PingMsg::Ping(0));
                ctx.set_timer(Micros::from_millis(500), 99);
            }
        }

        fn on_message(&mut self, from: PartyId, msg: PingMsg, ctx: &mut Ctx<PingMsg>) {
            match msg {
                PingMsg::Ping(k) => ctx.send(from, PingMsg::Pong(k)),
                PingMsg::Pong(k) => self.pongs_seen.push((k, ctx.now())),
            }
        }

        fn on_timer(&mut self, _token: u64, ctx: &mut Ctx<PingMsg>) {
            self.timer_fired_at = Some(ctx.now());
        }
    }

    fn two_nodes(cfg_mut: impl FnOnce(&mut SimConfig)) -> Simulator<PingMsg, PingNode> {
        let mut cfg = SimConfig::benign(2, 1);
        cfg.cost = CostModel::free();
        cfg.jitter_frac = 0.0;
        cfg_mut(&mut cfg);
        let nodes = vec![
            PingNode {
                peer: PartyId(1),
                initiator: true,
                pongs_seen: vec![],
                timer_fired_at: None,
            },
            PingNode {
                peer: PartyId(0),
                initiator: false,
                pongs_seen: vec![],
                timer_fired_at: None,
            },
        ];
        Simulator::new(cfg, nodes)
    }

    #[test]
    fn rtt_matches_latency_matrix() {
        let mut sim = two_nodes(|_| {});
        sim.run_to_quiescence();
        let pongs = &sim.node(PartyId(0)).pongs_seen;
        assert_eq!(pongs.len(), 1);
        // Nodes 0,1 are us-east1/us-west1: RTT ≈ 66.14 ms (plus negligible
        // serialization of two 64-byte messages).
        let rtt = pongs[0].1;
        let expect = sim.config().latency.rtt(PartyId(0), PartyId(1));
        assert!(
            rtt >= expect && rtt < expect + Micros(200),
            "rtt {rtt} vs expected {expect}"
        );
    }

    #[test]
    fn timer_fires_at_requested_time() {
        let mut sim = two_nodes(|_| {});
        sim.run_to_quiescence();
        let t = sim.node(PartyId(0)).timer_fired_at.expect("timer fired");
        assert_eq!(t, Micros::from_millis(500));
    }

    #[test]
    fn crashed_node_is_silent() {
        let mut sim = two_nodes(|cfg| {
            cfg.crash_at[1] = Some(Micros::ZERO);
        });
        sim.run_to_quiescence();
        assert!(sim.node(PartyId(0)).pongs_seen.is_empty());
    }

    /// A crash window with a scheduled restart: deliveries inside the window
    /// are dropped, `on_restart` fires exactly at the restart time, and the
    /// node processes messages again afterwards.
    #[test]
    fn restart_revives_a_crashed_node() {
        #[derive(Clone, Debug)]
        struct Tick;
        impl Message for Tick {
            fn wire_bytes(&self) -> usize {
                16
            }
        }
        struct Node {
            sent: u32,
            heard: Vec<Micros>,
            restarted_at: Option<Micros>,
        }
        impl Protocol<Tick> for Node {
            fn on_start(&mut self, ctx: &mut Ctx<Tick>) {
                if ctx.party() == PartyId(0) {
                    ctx.send(PartyId(1), Tick);
                    self.sent = 1;
                    ctx.set_timer(Micros::from_millis(100), 1);
                }
            }
            fn on_message(&mut self, _from: PartyId, _msg: Tick, ctx: &mut Ctx<Tick>) {
                self.heard.push(ctx.now());
            }
            fn on_timer(&mut self, _token: u64, ctx: &mut Ctx<Tick>) {
                if self.sent < 10 {
                    ctx.send(PartyId(1), Tick);
                    self.sent += 1;
                    ctx.set_timer(Micros::from_millis(100), 1);
                }
            }
            fn on_restart(&mut self, ctx: &mut Ctx<Tick>) {
                self.restarted_at = Some(ctx.now());
            }
        }
        let mut cfg = SimConfig::benign(2, 3);
        cfg.cost = CostModel::free();
        cfg.jitter_frac = 0.0;
        cfg.crash_at[1] = Some(Micros::from_millis(50));
        cfg.restart_at[1] = Some(Micros::from_millis(450));
        let node = |_| Node {
            sent: 0,
            heard: vec![],
            restarted_at: None,
        };
        let mut sim = Simulator::new(cfg, (0..2).map(node).collect());
        sim.run_to_quiescence();
        let receiver = sim.node(PartyId(1));
        assert_eq!(
            receiver.restarted_at,
            Some(Micros::from_millis(450)),
            "on_restart fires at the scheduled time"
        );
        // Ticks depart every 100 ms; one-way delay ≈ 33 ms. Arrivals inside
        // the [50 ms, 450 ms) window are dropped, the rest heard.
        assert!(
            !receiver.heard.is_empty(),
            "pre-crash delivery must be heard"
        );
        assert!(
            receiver
                .heard
                .iter()
                .all(|&t| t < Micros::from_millis(50) || t >= Micros::from_millis(450)),
            "no delivery may land inside the crash window: {:?}",
            receiver.heard
        );
        assert!(
            receiver
                .heard
                .iter()
                .any(|&t| t >= Micros::from_millis(450)),
            "post-restart deliveries must resume"
        );
        assert!(sim.stats().dropped_msgs > 0, "window deliveries dropped");
        assert!(
            sim.in_flight.slots.iter().all(Option::is_none),
            "dropped and delivered copies alike release their slot"
        );
    }

    #[test]
    fn partition_delays_but_delivers() {
        let mut sim = two_nodes(|cfg| {
            cfg.partitions.push(Partition {
                a: PartyId(0),
                b: PartyId(1),
                from: Micros::ZERO,
                until: Micros::from_millis(300),
            });
        });
        sim.run_to_quiescence();
        let pongs = &sim.node(PartyId(0)).pongs_seen;
        assert_eq!(pongs.len(), 1, "message survives the partition");
        assert!(
            pongs[0].1 > Micros::from_millis(300),
            "delivered after healing"
        );
    }

    #[test]
    fn pre_gst_adversary_delays() {
        let mut sim = two_nodes(|cfg| {
            cfg.gst = Micros::from_secs(10);
            cfg.pre_gst_extra_max = Micros::from_secs(2);
            cfg.seed = 7;
        });
        sim.run_to_quiescence();
        let pongs = &sim.node(PartyId(0)).pongs_seen;
        let base_rtt = sim.config().latency.rtt(PartyId(0), PartyId(1));
        assert_eq!(pongs.len(), 1);
        assert!(pongs[0].1 > base_rtt, "adversary added delay");
    }

    #[test]
    fn determinism_across_runs() {
        let run = || {
            let mut sim = two_nodes(|cfg| {
                cfg.jitter_frac = 0.05;
                cfg.seed = 42;
            });
            sim.run_to_quiescence();
            sim.node(PartyId(0)).pongs_seen.clone()
        };
        assert_eq!(run(), run());
    }

    /// The jittered arrival time for seed 42 is pinned to a constant: the
    /// PRNG stream must be identical across process runs, platforms and
    /// releases, or every seeded experiment silently re-randomizes. Pinned
    /// once when `ClanRng` replaced `rand::StdRng`.
    #[test]
    fn jitter_pinned_across_processes() {
        let mut sim = two_nodes(|cfg| {
            cfg.jitter_frac = 0.05;
            cfg.seed = 42;
        });
        sim.run_to_quiescence();
        let pongs = &sim.node(PartyId(0)).pongs_seen;
        assert_eq!(pongs.len(), 1);
        assert_eq!(pongs[0].1, Micros(PINNED_JITTERED_RTT_SEED42));
    }

    const PINNED_JITTERED_RTT_SEED42: u64 = 67_630;

    #[test]
    fn stats_count_wire_traffic() {
        let mut sim = two_nodes(|_| {});
        sim.run_to_quiescence();
        let stats = sim.stats();
        assert_eq!(stats.sent_msgs[0], 1);
        assert_eq!(stats.sent_msgs[1], 1);
        assert_eq!(stats.total_bytes(), 128);
        assert_eq!(stats.delivered_msgs, 2);
        // Per-kind byte breakdown: one 64-byte ping, one 64-byte pong.
        assert_eq!(stats.kind_bytes("ping"), 64);
        assert_eq!(stats.kind_bytes("pong"), 64);
        assert_eq!(stats.kind_bytes("other"), 0);
        // Benign run: nothing dropped or partitioned.
        assert_eq!(stats.dropped_msgs, 0);
        assert_eq!(stats.dropped_bytes, 0);
        assert_eq!(stats.partitioned_msgs, 0);

        // Receiver crashed mid-flight: the ping goes on the wire (counted
        // sent) but is dropped at delivery, so the pong never happens.
        let mut sim = two_nodes(|cfg| {
            cfg.crash_at[1] = Some(Micros(1));
        });
        sim.run_to_quiescence();
        let stats = sim.stats();
        assert_eq!(stats.sent_msgs[0], 1);
        assert_eq!(stats.delivered_msgs, 0);
        assert_eq!(stats.dropped_msgs, 1);
        assert_eq!(stats.dropped_bytes, 64);
        assert_eq!(stats.kind_bytes("pong"), 0);
    }

    /// A multicast is one outbox entry but is accounted per wire copy;
    /// loopback copies cost nothing — also when the message is block-sized
    /// and no other bulk data leaves the node in that invocation.
    #[test]
    fn multicast_accounts_wire_copies_and_skips_loopback() {
        #[derive(Clone, Debug)]
        struct Blob;
        impl Message for Blob {
            fn wire_bytes(&self) -> usize {
                10_000
            }
        }
        struct Node {
            heard: u32,
        }
        impl Protocol<Blob> for Node {
            fn on_start(&mut self, ctx: &mut Ctx<Blob>) {
                match ctx.party().0 {
                    0 => ctx.multicast((0..3).map(PartyId), Blob),
                    1 => ctx.send(PartyId(1), Blob),
                    _ => {}
                }
            }
            fn on_message(&mut self, _from: PartyId, _msg: Blob, _ctx: &mut Ctx<Blob>) {
                self.heard += 1;
            }
            fn on_timer(&mut self, _t: u64, _ctx: &mut Ctx<Blob>) {}
        }
        let mut cfg = SimConfig::benign(3, 0);
        cfg.cost = CostModel::free();
        let nodes = (0..3).map(|_| Node { heard: 0 }).collect();
        let mut sim = Simulator::new(cfg, nodes);
        sim.run_to_quiescence();
        let heard: Vec<u32> = sim.nodes().map(|n| n.heard).collect();
        assert_eq!(heard, [1, 2, 1]);
        let stats = sim.stats();
        assert_eq!(stats.sent_msgs, [2, 0, 0]);
        assert_eq!(stats.sent_bytes, [20_000, 0, 0]);
        assert_eq!(stats.kind_bytes("msg"), 20_000);
        assert_eq!(stats.delivered_msgs, 4);
    }

    /// Partition holds are counted (and the messages still arrive late).
    #[test]
    fn stats_count_partition_holds() {
        let mut sim = two_nodes(|cfg| {
            cfg.partitions.push(Partition {
                a: PartyId(0),
                b: PartyId(1),
                from: Micros::ZERO,
                until: Micros::from_millis(300),
            });
        });
        sim.run_to_quiescence();
        let stats = sim.stats();
        // The ping is held; the pong departs after healing and flows free.
        assert_eq!(stats.partitioned_msgs, 1);
        assert_eq!(stats.dropped_msgs, 0);
        assert_eq!(stats.delivered_msgs, 2);
    }

    /// Network-level telemetry: drops and partition holds emit events.
    #[test]
    fn telemetry_records_drops_and_holds() {
        use clanbft_telemetry::Telemetry;
        let (tel, rec) = Telemetry::mem();
        let mut sim = two_nodes(|cfg| {
            cfg.telemetry = tel;
            cfg.crash_at[1] = Some(Micros(1));
        });
        sim.run_to_quiescence();
        let events = rec.events();
        assert_eq!(events.len(), 1);
        let nd = events[0].to_ndjson();
        assert!(
            nd.contains(r#""ev":"msg_dropped""#) && nd.contains(r#""kind":"ping""#),
            "unexpected event line: {nd}"
        );
    }

    /// Charged CPU time serializes a node's message processing.
    #[test]
    fn cpu_charges_backpressure_processing() {
        #[derive(Clone, Debug)]
        struct Work;
        impl Message for Work {
            fn wire_bytes(&self) -> usize {
                32
            }
        }
        struct Worker {
            completions: Vec<Micros>,
        }
        impl Protocol<Work> for Worker {
            fn on_start(&mut self, ctx: &mut Ctx<Work>) {
                if ctx.party() == PartyId(0) {
                    for _ in 0..4 {
                        ctx.send(PartyId(1), Work);
                    }
                }
            }
            fn on_message(&mut self, _from: PartyId, _msg: Work, ctx: &mut Ctx<Work>) {
                // Each message costs 100 ms of simulated CPU.
                ctx.charge(Micros::from_millis(100));
                self.completions.push(ctx.now());
            }
            fn on_timer(&mut self, _t: u64, _ctx: &mut Ctx<Work>) {}
        }
        let mut cfg = SimConfig::benign(2, 0);
        cfg.cost = CostModel::free();
        cfg.jitter_frac = 0.0;
        let mut sim = Simulator::new(
            cfg,
            vec![
                Worker {
                    completions: vec![],
                },
                Worker {
                    completions: vec![],
                },
            ],
        );
        sim.run_to_quiescence();
        let c = &sim.node(PartyId(1)).completions;
        assert_eq!(c.len(), 4);
        // Messages arrive nearly together but each handler observes the
        // clock after its own work plus all queued predecessors'.
        for w in c.windows(2) {
            let gap = w[1] - w[0];
            assert_eq!(gap, Micros::from_millis(100), "single-threaded queueing");
        }
    }

    /// Serialization delay under a slow flat-bandwidth link.
    #[test]
    fn uplink_serialization_queues() {
        #[derive(Clone, Debug)]
        struct Big;
        impl Message for Big {
            fn wire_bytes(&self) -> usize {
                1_000_000
            }
        }
        struct Sender {
            arrivals: Vec<Micros>,
        }
        impl Protocol<Big> for Sender {
            fn on_start(&mut self, ctx: &mut Ctx<Big>) {
                if ctx.party() == PartyId(0) {
                    // Two 1 MB messages back-to-back on a 1 MB/s uplink.
                    ctx.send(PartyId(1), Big);
                    ctx.send(PartyId(1), Big);
                }
            }
            fn on_message(&mut self, _from: PartyId, _msg: Big, ctx: &mut Ctx<Big>) {
                self.arrivals.push(ctx.now());
            }
            fn on_timer(&mut self, _t: u64, _ctx: &mut Ctx<Big>) {}
        }
        let mut cfg = SimConfig::benign(2, 0);
        cfg.bandwidth = BandwidthModel::flat(1e6);
        cfg.cost = CostModel::free();
        cfg.jitter_frac = 0.0;
        let mut sim = Simulator::new(
            cfg,
            vec![Sender { arrivals: vec![] }, Sender { arrivals: vec![] }],
        );
        sim.run_to_quiescence();
        let arr = &sim.node(PartyId(1)).arrivals;
        assert_eq!(arr.len(), 2);
        // Both messages belong to one burst (one handler invocation): they
        // share the uplink concurrently and arrive together, 2 s of
        // serialization plus propagation after the start.
        assert_eq!(arr[0], arr[1], "burst messages arrive together");
        let prop = sim.config().latency.one_way(PartyId(0), PartyId(1));
        assert_eq!(arr[0], Micros::from_secs(2) + prop);
    }

    /// Bulk sends from *separate* handler invocations queue sequentially.
    #[test]
    fn uplink_bursts_queue_behind_each_other() {
        #[derive(Clone, Debug)]
        struct Big;
        impl Message for Big {
            fn wire_bytes(&self) -> usize {
                1_000_000
            }
        }
        struct Sender {
            arrivals: Vec<Micros>,
        }
        impl Protocol<Big> for Sender {
            fn on_start(&mut self, ctx: &mut Ctx<Big>) {
                if ctx.party() == PartyId(0) {
                    ctx.send(PartyId(1), Big);
                    ctx.set_timer(Micros(1), 1);
                }
            }
            fn on_message(&mut self, _from: PartyId, _msg: Big, ctx: &mut Ctx<Big>) {
                self.arrivals.push(ctx.now());
            }
            fn on_timer(&mut self, _t: u64, ctx: &mut Ctx<Big>) {
                ctx.send(PartyId(1), Big);
            }
        }
        let mut cfg = SimConfig::benign(2, 0);
        cfg.bandwidth = BandwidthModel::flat(1e6);
        cfg.cost = CostModel::free();
        cfg.jitter_frac = 0.0;
        let mut sim = Simulator::new(
            cfg,
            vec![Sender { arrivals: vec![] }, Sender { arrivals: vec![] }],
        );
        sim.run_to_quiescence();
        let arr = &sim.node(PartyId(1)).arrivals;
        assert_eq!(arr.len(), 2);
        // The second burst waits for the first to drain: arrivals ~1 s apart.
        let gap = arr[1] - arr[0];
        assert!(
            gap >= Micros::from_millis(999),
            "second burst must queue behind the first (gap {gap})"
        );
    }

    // ---- ownership of a stored message -------------------------------------

    use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
    use std::sync::Arc;

    /// What has happened to the instances of one [`Counted`] message.
    #[derive(Debug, Default)]
    struct Tally {
        clones: AtomicUsize,
        drops: AtomicUsize,
    }

    /// A message that counts its clones and drops.
    #[derive(Debug)]
    struct Counted(Arc<Tally>);

    impl Clone for Counted {
        fn clone(&self) -> Counted {
            self.0.clones.fetch_add(1, Relaxed);
            Counted(Arc::clone(&self.0))
        }
    }

    impl Drop for Counted {
        fn drop(&mut self) {
            self.0.drops.fetch_add(1, Relaxed);
        }
    }

    impl Message for Counted {
        fn wire_bytes(&self) -> usize {
            64
        }
    }

    /// Party 0 sends one [`Counted`] to `targets` at start, after `busy` of
    /// charged CPU; everyone counts what they hear. `lend` chooses between
    /// reading the lent message and the by-value default.
    struct Courier {
        tally: Arc<Tally>,
        targets: Vec<PartyId>,
        busy: Micros,
        lend: bool,
        heard: u32,
    }

    impl Protocol<Counted> for Courier {
        fn on_start(&mut self, ctx: &mut Ctx<Counted>) {
            if ctx.party() == PartyId(0) {
                ctx.charge(self.busy);
                ctx.multicast(self.targets.clone(), Counted(Arc::clone(&self.tally)));
            }
        }

        fn on_message(&mut self, _from: PartyId, _msg: Counted, _ctx: &mut Ctx<Counted>) {
            self.heard += 1;
        }

        fn on_message_ref(&mut self, from: PartyId, msg: &Counted, ctx: &mut Ctx<Counted>) {
            if self.lend {
                self.heard += 1;
            } else {
                self.on_message(from, msg.clone(), ctx);
            }
        }

        fn on_timer(&mut self, _token: u64, _ctx: &mut Ctx<Counted>) {}
    }

    /// Runs one courier burst over `n` parties to quiescence and returns
    /// `(clones, drops, heard per party, stats)`, after checking that no
    /// slot is left live and every instance made was dropped.
    fn courier_run(
        n: usize,
        targets: &[u32],
        lend: bool,
        busy: Micros,
        cfg_mut: impl FnOnce(&mut SimConfig),
    ) -> (usize, usize, Vec<u32>, NetStats) {
        let tally = Arc::new(Tally::default());
        let mut cfg = SimConfig::benign(n, 5);
        cfg.cost = CostModel::free();
        cfg_mut(&mut cfg);
        let nodes = (0..n)
            .map(|_| Courier {
                tally: Arc::clone(&tally),
                targets: targets.iter().map(|&t| PartyId(t)).collect(),
                busy,
                lend,
                heard: 0,
            })
            .collect();
        let mut sim = Simulator::new(cfg, nodes);
        sim.run_to_quiescence();
        assert_eq!(
            sim.in_flight.free.len(),
            sim.in_flight.slots.len(),
            "a slot is still live after quiescence"
        );
        assert!(sim.in_flight.slots.iter().all(Option::is_none));
        let (clones, drops) = (tally.clones.load(Relaxed), tally.drops.load(Relaxed));
        assert_eq!(drops, 1 + clones, "an instance leaked or was dropped twice");
        let heard = sim.nodes().map(|c| c.heard).collect();
        (clones, drops, heard, sim.stats().clone())
    }

    #[test]
    fn a_delivery_is_lent_not_cloned() {
        // Unicast; multicast with a loopback copy.
        for targets in [&[1u32][..], &[0, 1, 2, 3]] {
            let (clones, drops, heard, _) = courier_run(4, targets, true, Micros::ZERO, |_| {});
            assert_eq!((clones, drops), (0, 1), "targets {targets:?}");
            assert_eq!(heard.iter().sum::<u32>() as usize, targets.len());
        }
        // A node that only implements the by-value handler gets the default:
        // one clone per delivery, and still one drop of the stored body.
        let (clones, drops, heard, _) = courier_run(4, &[0, 1, 2, 3], false, Micros::ZERO, |_| {});
        assert_eq!((clones, drops), (4, 5));
        assert_eq!(heard, [1, 1, 1, 1]);
    }

    #[test]
    fn every_exit_of_a_copy_releases_its_share() {
        // Destination crashed while the copy was in flight.
        let (clones, drops, heard, stats) = courier_run(4, &[1, 2, 3], true, Micros::ZERO, |cfg| {
            cfg.crash_at[2] = Some(Micros(1));
        });
        assert_eq!((clones, drops), (0, 1));
        assert_eq!(heard, [0, 1, 0, 1]);
        assert_eq!((stats.dropped_msgs, stats.dropped_bytes), (1, 64));

        // Sender still computing when its crash hits: the whole burst is
        // dropped before the wire, and accounted per copy.
        let busy = Micros::from_millis(1);
        let (clones, drops, heard, stats) = courier_run(4, &[1, 2, 3], true, busy, |cfg| {
            cfg.crash_at[0] = Some(Micros(500));
        });
        assert_eq!((clones, drops), (0, 1));
        assert_eq!(heard, [0, 0, 0, 0]);
        assert_eq!((stats.dropped_msgs, stats.dropped_bytes), (3, 192));
        assert_eq!(stats.total_bytes(), 0);

        // Held by a partition, then delivered.
        let (clones, drops, heard, stats) = courier_run(4, &[1, 2, 3], true, Micros::ZERO, |cfg| {
            cfg.partitions.push(Partition {
                a: PartyId(0),
                b: PartyId(3),
                from: Micros::ZERO,
                until: Micros::from_millis(300),
            });
        });
        assert_eq!((clones, drops), (0, 1));
        assert_eq!(heard, [0, 1, 1, 1]);
        assert_eq!(stats.partitioned_msgs, 1);
    }

    /// Freed slots are reused: the slab's length is the peak number of
    /// bursts in flight, not the number of bursts ever sent.
    #[test]
    fn slab_high_water_is_the_peak_in_flight() {
        #[derive(Clone, Debug)]
        struct Ball(u32);
        impl Message for Ball {
            fn wire_bytes(&self) -> usize {
                16
            }
        }
        struct Player {
            peer: PartyId,
            bounces: u32,
        }
        impl Protocol<Ball> for Player {
            fn on_start(&mut self, ctx: &mut Ctx<Ball>) {
                if ctx.party() == PartyId(0) {
                    // Two balls in play, in separate bursts.
                    ctx.send(self.peer, Ball(0));
                    ctx.send(self.peer, Ball(1));
                }
            }
            fn on_message(&mut self, from: PartyId, Ball(k): Ball, ctx: &mut Ctx<Ball>) {
                self.bounces += 1;
                if k + 2 < 10_000 {
                    ctx.send(from, Ball(k + 2));
                }
            }
            fn on_timer(&mut self, _token: u64, _ctx: &mut Ctx<Ball>) {}
        }
        let mut cfg = SimConfig::benign(2, 9);
        cfg.cost = CostModel::free();
        let players = [1, 0].map(|peer| Player {
            peer: PartyId(peer),
            bounces: 0,
        });
        let mut sim = Simulator::new(cfg, players.into());
        sim.run_to_quiescence();
        assert_eq!(sim.nodes().map(|p| p.bounces).sum::<u32>(), 10_000);
        assert_eq!(sim.stats().delivered_msgs, 10_000);
        assert_eq!(sim.in_flight.slots.len(), 2, "slab high-water");
        assert_eq!(sim.in_flight.free.len(), 2, "both slots free at the end");
    }
}
