//! The timed slotted-ring system simulator: processors, caches, the slot
//! machine, and the snooping or full-map directory coherence protocol.
//!
//! One `RingSystem` owns everything; [`RingSystem::run`] steps the ring one
//! clock at a time. Per cycle it (1) dispatches due delayed events (memory
//! accesses completing, retries), (2) lets each processor issue references
//! until it blocks or catches up with the clock, and (3) lets each node act
//! on the slot header arriving at its interface — snoop it, remove it, or
//! claim an empty slot for a queued message.
//!
//! ### Sparse slot dispatch
//!
//! Step (3) visits only the arrivals at nodes that can act, in ascending
//! node order, as the dense pass over every arrival did. Two masks name
//! them:
//!
//! * **senders** — nodes with a queued message whose interface a slot
//!   header reaches this cycle (`tx` ANDed with the phase's arrival mask),
//!   visited only when that slot is empty and a queued message fits it;
//! * **stops** — a timing wheel of node masks, one entry per cycle modulo
//!   a power of two above the stage count. A message inserted at `src`
//!   reaches node `n` exactly `stage_distance(src, n)` cycles later, so
//!   its stops are written when it enters the ring: at its `dst`, and for
//!   a snooping probe also at every node in the block's *interest* — the
//!   nodes that may hold the block, the nodes with a transaction on it,
//!   and the home. A multicast invalidation stops everywhere.
//!
//! Every skipped arrival is a no-op. An empty slot does nothing at a node
//! with no queued message that fits it. A message is removed only at its
//! `dst`. Only snooping probes and invalidations act where they pass, and
//! a probe passing a node that holds the block `Inv`, has no transaction
//! on it and is not its home is `Ignore`d.
//!
//! Interest is tracked in snooping mode only, and never for the home,
//! whose bit every probe carries. It widens on gains only. A node's
//! interest in a block starts with its transaction, so a transaction start
//! adds a stop at the node for every probe on the block already in flight
//! ([`RingLayout::cycles_until`]); the fill that follows happens inside
//! that transaction and needs no new stops. A loss just clears the bit: a
//! stale stop reaches the unchanged handler, which does nothing there.
//! With the sanitizer on, every skipped arrival is re-checked against the
//! caches, queues and transactions after each cycle.
//!
//! ### Conflict handling
//!
//! * **Snooping** uses ack/retry, as slotted-ring snooping hardware did: a
//!   probe that returns to its requester without the owner's acknowledgment
//!   (owner busy, write-back in flight, conflicting transaction pending) is
//!   re-issued after a short backoff. An unacknowledged *invalidation*
//!   additionally drops the requester's stale line and converts into a write
//!   miss.
//! * **Directory** homes serialise transactions per block: the entry is
//!   locked from request arrival to commit, and conflicting requests queue
//!   at the home. A read fill overtaken by a multicast invalidation is
//!   "poisoned": the blocked load still completes (it is ordered before the
//!   write) but the line is not cached.

use std::collections::{HashMap, VecDeque};

use ringsim_cache::{AccessClass, Cache, LineState};
use ringsim_obs::{Obs, ObsConfig, Recorder};
use ringsim_proto::transitions::{self, DirAction, DirRequest, HomeSnoopAction, SnoopAction};
use ringsim_proto::{Directory, HomeMemory, MsgClass, MsgKind, ProtocolKind, RingMessage};
use ringsim_ring::{RingLayout, SlotId, SlotKind, SlotRing};
use ringsim_trace::{AddressSpace, Workload};
use ringsim_types::{
    BlockAddr, CoherenceEvents, ConfigError, FnvMap, FnvSet, NodeId, Region, Time,
};

use crate::collections::RingBuf;
use crate::config::SystemConfig;
use crate::proc::{Issue, MissClass, Processors, TxnKind};
use crate::report::SimReport;
use crate::sanitize;

#[derive(Debug, Clone)]
struct Txn {
    block: BlockAddr,
    kind: TxnKind,
    region: Region,
    start: Time,
    /// Data/permission comes from local memory (home == self, block clean).
    self_owner: bool,
    /// Fully local transaction (no ring use at all): local clean read.
    local_path: bool,
    /// Local memory read finishes at this time (self-owner writes).
    local_data_ready: Time,
    /// A write/invalidate overtook this read fill; complete without caching.
    poisoned: bool,
    /// Remote copies invalidated on behalf of this transaction (snooping).
    invalidated: u64,
    retries: u32,
}

#[derive(Debug)]
struct Node {
    cache: Cache,
    txn: Option<Txn>,
    probe_q: RingBuf<RingMessage>,
    block_q: RingBuf<RingMessage>,
    /// Dirty blocks evicted but not yet acknowledged by the home
    /// (directory mode): forwards are served from here.
    wb_buffer: FnvSet<u64>,
    /// Forwards that arrived while this node's own fill was in flight.
    pending_fwds: Vec<RingMessage>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Event {
    /// A purely local transaction completes.
    Complete { node: usize },
    /// `node` puts `msg` in its transmit queue (or delivers it locally when
    /// `dst == src`).
    Send { node: usize, msg: RingMessage },
    /// Directory home finishes its memory/directory access for the locked
    /// transaction on `block`.
    HomeAct { block: u64 },
    /// Snooping: re-issue a nacked transaction.
    Retry { node: usize },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum HomeStage {
    AwaitInval,
    AwaitUpdate,
}

#[derive(Debug, Clone, Copy)]
struct HomeTxn {
    req: RingMessage,
    stage: Option<HomeStage>,
    /// The request was a `DirUpgrade` whose line had been invalidated in
    /// flight: it is served as a write miss, so the eventual reply must
    /// carry data (`BlockData`), never a bare `DirAck`.
    converted: bool,
}

/// Bit `i` of a node mask.
const fn bit(i: usize) -> u64 {
    1 << i
}

/// `true` when node `me` takes `msg` off the ring: at its destination,
/// except that a message circling back to its source passes a destination
/// that is not the source.
fn removes_at(msg: &RingMessage, me: NodeId) -> bool {
    msg.dst == me && (!msg.kind.returns_to_source() || msg.src == me)
}

/// Which `(node, slot)` arrivals step (3) of [`RingSystem::run`] visits
/// (see the module docs).
#[derive(Debug)]
struct SlotDispatch {
    /// `arrivals[cycle % stages]`: the nodes a slot header reaches that
    /// cycle.
    arrivals: Vec<u64>,
    /// Nodes with a message in either transmit queue.
    tx: u64,
    /// Timing wheel: `wheel[cycle % wheel.len()]` holds the nodes where an
    /// occupied slot's header must be handled that cycle. Its length is a
    /// power of two above the stage count, so stops up to one revolution
    /// ahead never share an entry with the current cycle.
    wheel: Vec<u64>,
    /// `handle_slot` calls so far.
    visits: u64,
}

impl SlotDispatch {
    fn new(layout: &RingLayout) -> Self {
        let arrivals = layout
            .arrival_schedule()
            .iter()
            .map(|pairs| pairs.iter().fold(0, |mask, (n, _)| mask | bit(n.index())))
            .collect();
        Self {
            arrivals,
            tx: 0,
            wheel: vec![0; (layout.stages() + 1).next_power_of_two()],
            visits: 0,
        }
    }

    /// The nodes a slot header reaches at `cycle`.
    fn arrivals_at(&self, cycle: u64) -> u64 {
        self.arrivals[(cycle % self.arrivals.len() as u64) as usize]
    }

    /// Schedules a visit to `nodes` at `cycle`.
    fn stop(&mut self, cycle: u64, nodes: u64) {
        let last = self.wheel.len() as u64 - 1;
        self.wheel[(cycle & last) as usize] |= nodes;
    }

    /// The candidates of `cycle`: the stops scheduled for it (consumed)
    /// and the senders a header reaches.
    fn due(&mut self, cycle: u64) -> (u64, u64) {
        let last = self.wheel.len() as u64 - 1;
        let stops = std::mem::take(&mut self.wheel[(cycle & last) as usize]);
        let arrivals = self.arrivals_at(cycle);
        debug_assert_eq!(stops & !arrivals, 0, "stop at a node no header reaches");
        (stops, self.tx & arrivals)
    }
}

/// Snooping only: the nodes other than the home that a probe on one block
/// must visit. A node in neither mask holds the block `Inv` and has no
/// transaction on it, so the probe is `Ignore`d there.
#[derive(Debug, Clone, Copy, Default)]
struct Interest {
    /// Nodes whose cache holds the block.
    holders: u64,
    /// Nodes with a transaction in flight on the block.
    txns: u64,
}

/// The assembled timed simulator for one ring-based system and one
/// workload.
///
/// # Examples
///
/// ```
/// use ringsim_core::{RingSystem, SystemConfig};
/// use ringsim_proto::ProtocolKind;
/// use ringsim_trace::{Workload, WorkloadSpec};
///
/// let cfg = SystemConfig::ring_500mhz(ProtocolKind::Snooping, 4);
/// let workload = Workload::new(WorkloadSpec::demo(4).with_refs(2_000)).unwrap();
/// let mut sys = RingSystem::new(cfg, workload).unwrap();
/// let report = sys.run();
/// assert!(report.proc_util > 0.0 && report.proc_util <= 1.0);
/// ```
#[derive(Debug)]
pub struct RingSystem {
    cfg: SystemConfig,
    ring: SlotRing<RingMessage>,
    procs: Processors,
    nodes: Vec<Node>,
    space: AddressSpace,
    // Snooping memory state.
    mem: HomeMemory,
    // Directory state.
    dir: Directory,
    home_txns: FnvMap<u64, HomeTxn>,
    home_pending: FnvMap<u64, VecDeque<RingMessage>>,
    queue: crate::EventQueue<Event>,
    retries: u64,
    snapshot: Option<(ringsim_ring::RingStats, Time)>,
    // Telemetry (no-op unless `attach_obs` was called).
    obs: Obs,
    obs_ring_tl: usize,
    last_progress_cycle: u64,
    /// Per-home memory bank availability (used when
    /// `model_bank_contention` is on).
    bank_free_at: Vec<Time>,
    /// Sparse slot dispatch: the arrivals step (3) visits.
    dispatch: SlotDispatch,
    /// Snooping only: per-block probe interest, keyed by raw block number.
    /// An entry exists only while one of its masks is non-empty.
    interest: FnvMap<u64, Interest>,
    /// Earliest ring cycle at which each processor could issue again
    /// (`u64::MAX` while a transaction is in flight or the node has
    /// finished). Lets the per-cycle processor pass skip blocked nodes
    /// from one compact array instead of touching every `Node`.
    wake_at: Vec<u64>,
}

impl RingSystem {
    /// Builds the system.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] when the configuration is invalid or the
    /// workload's processor count does not match the ring's node count.
    pub fn new(cfg: SystemConfig, workload: Workload) -> Result<Self, ConfigError> {
        cfg.validate()?;
        let space = workload.space();
        let procs = Processors::new(workload, cfg.nodes(), cfg.proc_cycle)?;
        let ring = SlotRing::new(cfg.ring)?;
        let nodes = (0..cfg.nodes())
            .map(|_| {
                Ok(Node {
                    cache: Cache::new(cfg.cache)?,
                    txn: None,
                    probe_q: RingBuf::new(),
                    block_q: RingBuf::new(),
                    wb_buffer: FnvSet::default(),
                    pending_fwds: Vec::new(),
                })
            })
            .collect::<Result<Vec<_>, ConfigError>>()?;
        let n = nodes.len();
        let dispatch = SlotDispatch::new(ring.layout());
        Ok(Self {
            cfg,
            ring,
            procs,
            nodes,
            space,
            mem: HomeMemory::new(),
            dir: Directory::new(n),
            home_txns: FnvMap::default(),
            home_pending: FnvMap::default(),
            queue: crate::EventQueue::new(),
            retries: 0,
            snapshot: None,
            obs: Obs::disabled(),
            obs_ring_tl: usize::MAX,
            last_progress_cycle: 0,
            bank_free_at: vec![Time::ZERO; n],
            dispatch,
            interest: FnvMap::default(),
            wake_at: vec![0; n],
        })
    }

    /// Enables telemetry for this run: per-transaction trace events plus a
    /// `"ring"` gauge timeline (slot/probe/block occupancy, home queue
    /// depth, transmit queue depth). Recording is strictly observational —
    /// it cannot change the simulation's results.
    pub fn attach_obs(&mut self, cfg: ObsConfig) {
        let mut obs = Obs::enabled(cfg, self.nodes.len());
        self.obs_ring_tl = obs.add_timeline(
            "ring",
            &["slot_occ", "probe_occ", "block_occ", "home_queue", "tx_queue"],
        );
        self.obs = obs;
    }

    /// Takes the telemetry recorder (trace buffer + timelines) after a run;
    /// `None` unless [`RingSystem::attach_obs`] was called.
    pub fn take_obs(&mut self) -> Option<Recorder> {
        std::mem::take(&mut self.obs).into_recorder()
    }

    fn schedule(&mut self, at: Time, ev: Event) {
        self.queue.schedule(at, ev);
    }

    fn home_of(&self, block: BlockAddr) -> NodeId {
        self.space.home_of_block(block)
    }

    /// When a memory access started at `now` at `home` completes. With bank
    /// contention modelling on, accesses to the same bank serialise; off
    /// (the paper's assumption), every access takes exactly `mem_latency`.
    fn mem_done(&mut self, home: usize, now: Time) -> Time {
        if self.cfg.model_bank_contention {
            let start = self.bank_free_at[home].max(now);
            let done = start + self.cfg.mem_latency;
            self.bank_free_at[home] = done;
            done
        } else {
            now + self.cfg.mem_latency
        }
    }

    /// Runs to completion and reports.
    ///
    /// # Panics
    ///
    /// Panics if the simulation makes no progress for a very long stretch
    /// (a protocol deadlock — a bug, caught loudly rather than hanging).
    pub fn run(&mut self) -> SimReport {
        loop {
            let now = self.ring.now();
            // 1. dispatch due events.
            while let Some((_, ev)) = self.queue.pop_due(now) {
                self.dispatch(ev, now);
            }
            // 2. processors (only the ones that could act this cycle; see
            // `refresh_wake`).
            let cycle = self.ring.cycle();
            for i in 0..self.nodes.len() {
                if self.wake_at[i] <= cycle {
                    self.step_processor(i, now);
                    self.refresh_wake(i);
                }
            }
            // 3. slot arrivals — only at the nodes that can act, in
            // ascending node order. Handling one node never adds work at
            // another in the same cycle (it only touches its own queues),
            // so the candidates are read once.
            let (stops, senders) = self.dispatch.due(cycle);
            let mut due = stops | senders;
            let mut visited = 0;
            while due != 0 {
                let i = due.trailing_zeros() as usize;
                due &= due - 1;
                let slot = self.ring.arrival(NodeId::new(i)).expect("due node has an arrival");
                // A sender with no stop here acts only if it can fill the
                // slot.
                if stops & bit(i) == 0
                    && (self.ring.peek(slot).is_some()
                        || self.first_fit(i, self.ring.kind_of(slot)).is_none())
                {
                    continue;
                }
                visited |= bit(i);
                self.handle_slot(i, slot, now);
            }
            if sanitize::sanitize_enabled() {
                self.sanitize_skipped_slots(visited);
            }
            // 4. telemetry gauges (no-op unless attached).
            if self.obs.sample_due(now) {
                let values = vec![
                    self.ring.in_flight() as f64 / self.ring.layout().slot_count().max(1) as f64,
                    self.ring.in_flight_probe() as f64 / self.ring.probe_slots().max(1) as f64,
                    self.ring.in_flight_block() as f64 / self.ring.block_slots().max(1) as f64,
                    self.home_pending.values().map(VecDeque::len).sum::<usize>() as f64,
                    self.nodes.iter().map(|n| n.probe_q.len() + n.block_q.len()).sum::<usize>()
                        as f64,
                ];
                self.obs.sample(self.obs_ring_tl, now, values);
            }
            // 5. termination / watchdog.
            if self.procs.all_finished() {
                break;
            }
            if self.ring.cycle() - self.last_progress_cycle > 4_000_000 {
                panic!(
                    "ring simulation deadlock at cycle {}: {:?}",
                    self.ring.cycle(),
                    self.diagnostics()
                );
            }
            self.ring.advance();
            // Start the measured ring-utilisation window once every node has
            // warmed up.
            if self.snapshot.is_none() && self.procs.all_measuring() {
                self.snapshot = Some((self.ring.stats(), self.ring.now()));
            }
        }
        self.build_report()
    }

    fn diagnostics(&self) -> Vec<String> {
        self.nodes
            .iter()
            .enumerate()
            .filter_map(|(i, n)| {
                n.txn.as_ref().map(|t| {
                    format!(
                        "P{i}: txn {:?} on {} since {} retries {} (probe_q {}, block_q {})",
                        t.kind,
                        t.block,
                        t.start,
                        t.retries,
                        n.probe_q.len(),
                        n.block_q.len()
                    )
                })
            })
            .collect()
    }

    // ----------------------------------------------------------- processors

    /// Recomputes `wake_at[i]` from the node's blocking state. Must be
    /// called after anything that clears a transaction or moves its issue
    /// time (i.e. [`Self::step_processor`] and [`Self::finish_txn`]), so
    /// that a node is stepped only when it can issue: no transaction
    /// outstanding, budget not spent, issue time reached.
    fn refresh_wake(&mut self, i: usize) {
        self.wake_at[i] = match self.procs.ready_at(i) {
            Some(ready_at) if self.nodes[i].txn.is_none() => {
                ready_at.as_ps().div_ceil(self.ring.config().clock_period.as_ps())
            }
            _ => u64::MAX,
        };
    }

    fn step_processor(&mut self, i: usize, now: Time) {
        while let Issue::Ref(r, block) = self.procs.next_ref(i, now, now) {
            let class = self.nodes[i].cache.classify(block, r.kind);
            if class == AccessClass::Hit {
                continue;
            }
            let kind = TxnKind::of(class, r.kind);
            let start = self.procs.begin(&mut self.obs, i, kind, block);
            self.nodes[i].txn = Some(Txn {
                block,
                kind,
                region: r.region,
                start,
                self_owner: false,
                local_path: false,
                local_data_ready: Time::ZERO,
                poisoned: false,
                invalidated: 0,
                retries: 0,
            });
            self.txn_started(i, block);
            self.issue_txn(i, now.max(start));
            return;
        }
    }

    /// Queues `msg` for transmission no earlier than `at` (a transaction's
    /// messages must not enter the ring before the processor has actually
    /// issued the reference).
    fn send_no_earlier(&mut self, i: usize, msg: RingMessage, at: Time) {
        if at > self.ring.now() {
            self.schedule(at, Event::Send { node: i, msg });
        } else {
            self.enqueue_msg(i, msg, at);
        }
    }

    fn issue_txn(&mut self, i: usize, now: Time) {
        let me = NodeId::new(i);
        let (block, kind) = {
            let t = self.nodes[i].txn.as_ref().expect("issue without txn");
            (t.block, t.kind)
        };
        let home = self.home_of(block);
        match self.cfg.protocol {
            ProtocolKind::Snooping => {
                let local_clean = home == me && !self.mem.is_dirty(block);
                let t = self.nodes[i].txn.as_mut().expect("txn");
                t.self_owner = false;
                t.local_path = false;
                match kind {
                    TxnKind::Read if local_clean => {
                        t.local_path = true;
                        let done = self.mem_done(i, now);
                        self.schedule(done, Event::Complete { node: i });
                    }
                    TxnKind::Read => {
                        let probe = RingMessage::new(MsgKind::SnoopRead, block, me, me);
                        self.send_no_earlier(i, probe, now);
                    }
                    TxnKind::Write => {
                        if local_clean {
                            t.self_owner = true;
                            t.local_data_ready = Time::ZERO; // set below
                            self.mem.set_dirty(block);
                        }
                        if self.nodes[i].txn.as_ref().is_some_and(|t| t.self_owner) {
                            let ready = self.mem_done(i, now);
                            if let Some(t) = self.nodes[i].txn.as_mut() {
                                t.local_data_ready = ready;
                            }
                        }
                        let probe = RingMessage::new(MsgKind::SnoopWrite, block, me, me);
                        self.send_no_earlier(i, probe, now);
                    }
                    TxnKind::Upgrade => {
                        if local_clean {
                            t.self_owner = true;
                            self.mem.set_dirty(block);
                        }
                        let probe = RingMessage::new(MsgKind::SnoopUpgrade, block, me, me);
                        self.send_no_earlier(i, probe, now);
                    }
                }
            }
            ProtocolKind::Directory => {
                let mk = match kind {
                    TxnKind::Read => MsgKind::DirRead,
                    TxnKind::Write => MsgKind::DirWrite,
                    TxnKind::Upgrade => MsgKind::DirUpgrade,
                };
                let req = RingMessage::new(mk, block, me, home);
                if home == me {
                    if now > self.ring.now() {
                        // Deliver to our own home side once the reference
                        // actually issues.
                        self.schedule(now, Event::Send { node: i, msg: req });
                    } else {
                        self.home_receive(req, now);
                    }
                } else {
                    self.send_no_earlier(i, req, now);
                }
            }
            ProtocolKind::Sci | ProtocolKind::Mesi | ProtocolKind::Dragon => {
                unreachable!("rejected by SystemConfig::validate")
            }
        }
    }

    // ------------------------------------------------------------- events

    fn dispatch(&mut self, ev: Event, now: Time) {
        match ev {
            Event::Complete { node } => self.complete_local(node, now),
            Event::Send { node, msg } => self.enqueue_msg(node, msg, now),
            Event::HomeAct { block } => self.home_act(BlockAddr::new(block), now),
            Event::Retry { node } => {
                if self.nodes[node].txn.is_some() {
                    self.issue_txn(node, now);
                }
            }
        }
    }

    /// Completes a transaction that needed no reply message (local clean
    /// read, or self-owned write waiting for memory + probe return).
    fn complete_local(&mut self, i: usize, now: Time) {
        let Some(t) = self.nodes[i].txn.clone() else { return };
        match t.kind {
            TxnKind::Read => {
                if !t.poisoned {
                    self.fill(i, t.block, LineState::Rs, now);
                }
                self.finish_txn(i, now, None);
            }
            TxnKind::Write => {
                self.fill(i, t.block, LineState::We, now);
                self.finish_txn(i, now, None);
            }
            TxnKind::Upgrade => {
                let ok = self.nodes[i].cache.promote(t.block);
                debug_assert!(ok, "self-owned upgrade failed to promote");
                self.finish_txn(i, now, None);
            }
        }
    }

    fn enqueue_msg(&mut self, i: usize, msg: RingMessage, now: Time) {
        if msg.dst == msg.src && !msg.kind.returns_to_source() {
            // Local delivery (home == requester replies, local write-backs).
            self.deliver(i, msg, now);
            return;
        }
        match msg.class() {
            MsgClass::Probe => self.nodes[i].probe_q.push_back(msg),
            MsgClass::Block => self.nodes[i].block_q.push_back(msg),
        }
        self.dispatch.tx |= bit(i);
    }

    // ------------------------------------------------------------- slots

    fn handle_slot(&mut self, i: usize, slot: SlotId, now: Time) {
        self.dispatch.visits += 1;
        let me = NodeId::new(i);
        let occupied = self.ring.peek(slot).is_some();
        if occupied {
            let msg = *self.ring.peek(slot).expect("occupied");
            if removes_at(&msg, me) {
                let msg = self.ring.remove(slot, me);
                self.last_progress_cycle = self.ring.cycle();
                self.deliver(i, msg, now);
            } else {
                self.snoop(i, slot);
            }
        } else {
            self.try_transmit(i, slot);
        }
    }

    /// Position of the first message in node `i`'s queue for slots of
    /// `kind` that fits such a slot (parity filter for probes).
    fn first_fit(&self, i: usize, kind: SlotKind) -> Option<usize> {
        let node = &self.nodes[i];
        match kind {
            SlotKind::Block => (!node.block_q.is_empty()).then_some(0),
            _ => node.probe_q.iter().position(|m| kind.parity().accepts(m.block.is_even())),
        }
    }

    fn try_transmit(&mut self, i: usize, slot: SlotId) {
        let me = NodeId::new(i);
        let kind = self.ring.kind_of(slot);
        if let Some(pos) = self.first_fit(i, kind) {
            let q = match kind {
                SlotKind::Block => &mut self.nodes[i].block_q,
                _ => &mut self.nodes[i].probe_q,
            };
            let msg = q.remove(pos).expect("position valid");
            if self.ring.try_insert(slot, me, msg).is_err() {
                // Anti-starvation rule: put it back, try next slot.
                let q = match kind {
                    SlotKind::Block => &mut self.nodes[i].block_q,
                    _ => &mut self.nodes[i].probe_q,
                };
                q.push_front(msg);
            } else {
                self.last_progress_cycle = self.ring.cycle();
                self.schedule_stops(me, &msg);
                let node = &self.nodes[i];
                if node.probe_q.is_empty() && node.block_q.is_empty() {
                    self.dispatch.tx &= !bit(i);
                }
            }
        }
    }

    /// Schedules the visits `msg`, just inserted at node `me`, needs: its
    /// `dst`; for a snooping probe also the block's interest and its home;
    /// for a multicast invalidation every node.
    fn schedule_stops(&mut self, me: NodeId, msg: &RingMessage) {
        let targets = match msg.kind {
            MsgKind::DirInval => u64::MAX >> (64 - self.nodes.len()),
            kind if kind.is_snoop_probe() => {
                let interest = self.interest.get(&msg.block.raw()).copied().unwrap_or_default();
                bit(msg.dst.index())
                    | bit(self.home_of(msg.block).index())
                    | interest.holders
                    | interest.txns
            }
            _ => bit(msg.dst.index()),
        };
        let cycle = self.ring.cycle();
        let layout = self.ring.layout();
        let mut rest = targets;
        while rest != 0 {
            let n = rest.trailing_zeros() as usize;
            rest &= rest - 1;
            let arrive = cycle + layout.stage_distance(me, NodeId::new(n)) as u64;
            self.dispatch.stop(arrive, bit(n));
        }
    }

    /// Applies `update` to node `i`'s bits in `block`'s interest entry,
    /// dropping the entry once it is empty. Returns `false`, doing
    /// nothing, in directory mode and for the home, whose bit is never
    /// tracked.
    fn update_interest(
        &mut self,
        i: usize,
        block: BlockAddr,
        update: fn(&mut Interest, u64),
    ) -> bool {
        if self.cfg.protocol != ProtocolKind::Snooping || self.home_of(block).index() == i {
            return false;
        }
        let entry = self.interest.entry(block.raw()).or_default();
        update(entry, bit(i));
        if entry.holders | entry.txns == 0 {
            self.interest.remove(&block.raw());
        }
        true
    }

    /// Node `i` started a transaction on `block`: it joins the block's
    /// interest, and every probe on the block already in flight gets a stop
    /// at its next arrival at `i`.
    fn txn_started(&mut self, i: usize, block: BlockAddr) {
        if !self.update_interest(i, block, |e, b| e.txns |= b) || self.ring.in_flight_probe() == 0 {
            return;
        }
        let node = NodeId::new(i);
        let cycle = self.ring.cycle();
        for (slot, msg) in self.ring.occupied() {
            if msg.block == block && msg.kind.is_snoop_probe() {
                let arrive = cycle + self.ring.layout().cycles_until(slot, node, cycle);
                self.dispatch.stop(arrive, bit(i));
            }
        }
    }

    /// Invalidates node `i`'s copy of `block`, if any.
    fn drop_line(&mut self, i: usize, block: BlockAddr) {
        self.nodes[i].cache.snoop_invalidate(block);
        self.update_interest(i, block, |e, b| e.holders &= !b);
    }

    /// A message passes node `i` without being removed: snooping actions.
    fn snoop(&mut self, i: usize, slot: SlotId) {
        let me = NodeId::new(i);
        let msg = *self.ring.peek(slot).expect("occupied");
        match msg.kind {
            MsgKind::SnoopRead | MsgKind::SnoopWrite | MsgKind::SnoopUpgrade => {
                self.snoop_probe(i, slot, msg);
            }
            MsgKind::DirInval if msg.requester != me => {
                let state = self.nodes[i].cache.state_of(msg.block);
                match transitions::snooper_action(state, msg.kind) {
                    SnoopAction::Invalidate => {
                        // Presence bits are updated wholesale when the
                        // multicast returns to the home.
                        self.drop_line(i, msg.block);
                    }
                    SnoopAction::Ignore => {}
                    SnoopAction::SupplyInvalidate | SnoopAction::SupplyDowngrade => {
                        unreachable!("multicast invalidation never asks a cache for data")
                    }
                }
                self.poison_pending_read(i, msg.block);
            }
            _ => {}
        }
    }

    fn poison_pending_read(&mut self, i: usize, block: BlockAddr) {
        if let Some(t) = self.nodes[i].txn.as_mut() {
            if t.block == block && t.kind == TxnKind::Read {
                t.poisoned = true;
            }
        }
    }

    /// The home is ordering `requester`'s transaction on `block` *now*: a
    /// poison mark left by a multicast that completed before this
    /// serialisation point is stale (the fill is ordered after that write
    /// and may be cached). Only an invalidation arriving after this moment
    /// may poison the fill.
    fn unpoison(&mut self, requester: NodeId, block: BlockAddr) {
        if let Some(t) = self.nodes[requester.index()].txn.as_mut() {
            if t.block == block {
                t.poisoned = false;
            }
        }
    }

    fn snoop_probe(&mut self, i: usize, slot: SlotId, msg: RingMessage) {
        let me = NodeId::new(i);
        debug_assert_ne!(msg.src, me, "source does not snoop its own probe");
        let block = msg.block;
        // A node with its own transaction in flight on this block does not
        // participate: conflicts resolve through the home's dirty bit and
        // the requester's retry.
        if let Some(t) = &self.nodes[i].txn {
            if t.block == block {
                if msg.kind != MsgKind::SnoopRead && t.kind == TxnKind::Read {
                    self.poison_pending_read(i, block);
                }
                return;
            }
        }
        let state = self.nodes[i].cache.state_of(block);
        let home = self.home_of(block);
        let supply = self.cfg.supply_latency;
        let mem = self.cfg.mem_latency;
        let now = self.ring.now();
        let data_reply =
            RingMessage::for_requester(MsgKind::BlockData, block, me, msg.requester, msg.requester);
        // Cache side: the pure table decides, this function adds timing.
        match transitions::snooper_action(state, msg.kind) {
            SnoopAction::SupplyDowngrade => {
                // Dirty owner: downgrade, ack, supply, refresh memory.
                self.nodes[i].cache.snoop_downgrade(block);
                if let Some(m) = self.ring.peek_mut(slot) {
                    m.acked = true;
                }
                let data = data_reply.with_from_dirty(true);
                self.schedule(now + supply, Event::Send { node: i, msg: data });
                let wb = RingMessage::new(MsgKind::WriteBack, block, me, home);
                self.schedule(now + supply, Event::Send { node: i, msg: wb });
            }
            SnoopAction::SupplyInvalidate => {
                // Dirty owner: supply and relinquish.
                self.drop_line(i, block);
                if let Some(m) = self.ring.peek_mut(slot) {
                    m.acked = true;
                }
                let data = data_reply.with_from_dirty(true);
                self.schedule(now + supply, Event::Send { node: i, msg: data });
            }
            SnoopAction::Invalidate => {
                self.drop_line(i, block);
                self.credit_invalidation(msg.requester, block);
            }
            SnoopAction::Ignore => {}
        }
        // Home side: the dirty bit arbitrates whether memory answers. If
        // dirty, the (old or pending) owner responds instead.
        if me == home {
            match transitions::home_snoop_action(self.mem.is_dirty(block), msg.kind) {
                HomeSnoopAction::Supply => {
                    if let Some(m) = self.ring.peek_mut(slot) {
                        m.acked = true;
                    }
                    let done = self.mem_done(i, now);
                    self.schedule(done, Event::Send { node: i, msg: data_reply });
                }
                HomeSnoopAction::SupplyClaim => {
                    if let Some(m) = self.ring.peek_mut(slot) {
                        m.acked = true;
                    }
                    self.schedule(now + mem, Event::Send { node: i, msg: data_reply });
                    self.mem.set_dirty(block);
                }
                HomeSnoopAction::AckClaim => {
                    if let Some(m) = self.ring.peek_mut(slot) {
                        m.acked = true;
                    }
                    self.mem.set_dirty(block);
                }
                HomeSnoopAction::Silent => {}
            }
        }
    }

    fn credit_invalidation(&mut self, requester: NodeId, block: BlockAddr) {
        if let Some(t) = self.nodes[requester.index()].txn.as_mut() {
            if t.block == block {
                t.invalidated += 1;
            }
        }
    }

    // ----------------------------------------------------------- delivery

    fn deliver(&mut self, i: usize, msg: RingMessage, now: Time) {
        match msg.kind {
            MsgKind::SnoopRead | MsgKind::SnoopWrite | MsgKind::SnoopUpgrade => {
                self.probe_returned(i, msg, now);
            }
            MsgKind::DirRead | MsgKind::DirWrite | MsgKind::DirUpgrade => {
                self.home_receive(msg, now);
            }
            MsgKind::DirFwdRead | MsgKind::DirFwdWrite => {
                // A forward can always be served from the write-back buffer,
                // even while the target's own re-miss on the block is in
                // flight — parking it would deadlock the home (which holds
                // the lock for the forwarded requester) against the target's
                // queued request.
                let pending = self.nodes[i].txn.as_ref().is_some_and(|t| t.block == msg.block)
                    && !self.nodes[i].wb_buffer.contains(&msg.block.raw());
                if pending {
                    self.nodes[i].pending_fwds.push(msg);
                } else {
                    self.serve_forward(i, msg, now);
                }
            }
            MsgKind::DirInval => self.inval_returned(msg, now),
            MsgKind::DirAck => self.ack_received(i, msg, now),
            MsgKind::BlockData => self.data_received(i, msg, now),
            MsgKind::WriteBack => match self.cfg.protocol {
                ProtocolKind::Snooping => self.mem.clear_dirty(msg.block),
                ProtocolKind::Directory => self.home_receive(msg, now),
                ProtocolKind::Sci | ProtocolKind::Mesi | ProtocolKind::Dragon => {
                    unreachable!("rejected by SystemConfig::validate")
                }
            },
            MsgKind::MemUpdate => self.update_received(msg, now),
        }
    }

    /// A snooping probe returned to its requester.
    fn probe_returned(&mut self, i: usize, msg: RingMessage, now: Time) {
        let Some(t) = self.nodes[i].txn.clone() else { return };
        if t.block != msg.block {
            return; // stale return from a superseded attempt
        }
        let acked = msg.acked || t.self_owner;
        if !acked {
            self.retries += 1;
            self.obs.instant(i, "retry", now);
            let convert = t.kind == TxnKind::Upgrade;
            {
                let t = self.nodes[i].txn.as_mut().expect("txn");
                t.retries += 1;
                if convert {
                    t.kind = TxnKind::Write;
                }
            }
            if convert {
                // The requester's line is stale: drop it before retrying as
                // a write miss.
                self.drop_line(i, msg.block);
            }
            let backoff = self.cfg.ring.clock_period * self.cfg.retry_backoff_cycles;
            self.schedule(now + backoff, Event::Retry { node: i });
            return;
        }
        self.obs.txn_mark(i, "probe", now);
        match t.kind {
            TxnKind::Upgrade => {
                // Ack observed in the following probe slot of the same type.
                let delay = if t.self_owner {
                    Time::ZERO
                } else {
                    self.cfg.ring.clock_period * self.cfg.ring.frame_stages() as u64
                };
                let ok = self.nodes[i].cache.promote(t.block);
                debug_assert!(ok, "acked upgrade failed to promote");
                let done = now + delay;
                self.finish_txn(i, done, None);
            }
            TxnKind::Write if t.self_owner => {
                let done = now.max(t.local_data_ready);
                self.schedule(done, Event::Complete { node: i });
            }
            _ => {
                // Data will arrive in a block message.
            }
        }
    }

    /// Data reply arrives at the requester.
    fn data_received(&mut self, i: usize, msg: RingMessage, now: Time) {
        let Some(t) = self.nodes[i].txn.clone() else {
            return;
        };
        if t.block != msg.block {
            return;
        }
        match t.kind {
            TxnKind::Read => {
                if !t.poisoned {
                    self.fill(i, t.block, LineState::Rs, now);
                }
            }
            TxnKind::Write | TxnKind::Upgrade => {
                // Upgrades converted to write misses by the home also land
                // here; either way the block arrives write-exclusive.
                self.fill(i, t.block, LineState::We, now);
            }
        }
        self.finish_txn(i, now, Some(msg));
    }

    /// Directory upgrade grant arrives at the requester.
    fn ack_received(&mut self, i: usize, msg: RingMessage, now: Time) {
        let Some(t) = self.nodes[i].txn.clone() else { return };
        if t.block != msg.block {
            return;
        }
        debug_assert_eq!(t.kind, TxnKind::Upgrade);
        let ok = self.nodes[i].cache.promote(t.block);
        debug_assert!(
            ok,
            "directory granted an upgrade for an absent line: node {i}, {msg}, state {:?}, dir {:?}",
            self.nodes[i].cache.state_of(t.block),
            self.dir.entry(t.block),
        );
        self.finish_txn(i, now, Some(msg));
    }

    /// Install a block and handle the victim it displaces.
    fn fill(&mut self, i: usize, block: BlockAddr, state: LineState, now: Time) {
        let me = NodeId::new(i);
        let victim = self.nodes[i].cache.fill(block, state);
        // No new stops: the fill happens inside `i`'s transaction on the
        // block, whose start already put `i` on every probe's path.
        self.update_interest(i, block, |e, b| e.holders |= b);
        if let Some((victim, vstate)) = victim {
            let vhome = self.home_of(victim);
            match self.cfg.protocol {
                ProtocolKind::Snooping => {
                    self.update_interest(i, victim, |e, b| e.holders &= !b);
                    if vstate.is_dirty() {
                        if vhome == me {
                            self.mem.clear_dirty(victim);
                        } else {
                            let wb = RingMessage::new(MsgKind::WriteBack, victim, me, vhome);
                            self.enqueue_msg(i, wb, now);
                        }
                        self.count_writeback(i, vhome == me);
                    }
                }
                ProtocolKind::Directory => {
                    if vstate.is_dirty() {
                        self.nodes[i].wb_buffer.insert(victim.raw());
                        let wb = RingMessage::new(MsgKind::WriteBack, victim, me, vhome);
                        if vhome == me {
                            self.home_receive(wb, now);
                        } else {
                            self.enqueue_msg(i, wb, now);
                        }
                        self.count_writeback(i, vhome == me);
                    } else {
                        // Clean replacement: presence bits refreshed with a
                        // zero-cost replacement hint (idealisation noted in
                        // DESIGN.md).
                        self.dir.remove_sharer(victim, me);
                    }
                }
                ProtocolKind::Sci | ProtocolKind::Mesi | ProtocolKind::Dragon => {
                    unreachable!("rejected by SystemConfig::validate")
                }
            }
        }
    }

    fn count_writeback(&mut self, i: usize, local: bool) {
        if self.procs.measuring(i) {
            if local {
                self.procs.events.writeback_local += 1;
            } else {
                self.procs.events.writeback_remote += 1;
            }
        }
    }

    /// Finish the in-flight transaction for node `i` at time `done`.
    fn finish_txn(&mut self, i: usize, done: Time, reply: Option<RingMessage>) {
        let t = self.nodes[i].txn.take().expect("finishing absent txn");
        self.update_interest(i, t.block, |e, b| e.txns &= !b);
        // Serve any forwards that waited for this fill (directory mode).
        let fwds = std::mem::take(&mut self.nodes[i].pending_fwds);
        for fwd in fwds {
            if fwd.block == t.block {
                self.serve_forward(i, fwd, done);
            } else {
                self.nodes[i].pending_fwds.push(fwd);
            }
        }
        if sanitize::sanitize_enabled() {
            self.sanitize_retired_block(t.block);
        }
        self.last_progress_cycle = self.ring.cycle();
        // Class bucket from the requester's observations. A reply whose
        // source is the requester itself came from the local home
        // (directory mode serves local misses without the ring).
        let me = NodeId::new(i);
        let miss = (t.kind != TxnKind::Upgrade).then(|| {
            if t.local_path || reply.is_some_and(|m| m.src == me && !m.from_dirty) {
                MissClass::Local
            } else if reply.is_some_and(|m| m.from_dirty) {
                MissClass::Dirty
            } else {
                MissClass::CleanRemote
            }
        });
        self.procs.retire(&mut self.obs, i, t.start, done, miss);
        if self.procs.measuring(i) && self.cfg.protocol == ProtocolKind::Snooping {
            self.classify_snooping(i, &t, reply);
        }
        self.refresh_wake(i);
    }

    /// Snooping-mode event classification, performed at completion from the
    /// transaction's own observations (who supplied, what got invalidated).
    fn classify_snooping(&mut self, i: usize, t: &Txn, reply: Option<RingMessage>) {
        let me = NodeId::new(i);
        let block = t.block;
        let home = self.home_of(block);
        let local = home == me;
        let ev = &mut self.procs.events;
        match t.region {
            Region::Private => {
                if t.kind != TxnKind::Upgrade {
                    ev.private_misses += 1;
                }
                if t.kind == TxnKind::Upgrade && t.invalidated == 0 {
                    ev.record_upgrade(false, local);
                }
                return;
            }
            Region::Shared => {}
        }
        let dirty_src = reply.and_then(|m| if m.from_dirty { Some(m.src) } else { None });
        match t.kind {
            TxnKind::Read => match dirty_src {
                Some(d) => {
                    if dirty_on_path(me, home, d, self.cfg.nodes()) {
                        ev.read_dirty_2 += 1;
                    } else {
                        ev.read_dirty_1 += 1;
                    }
                }
                None => {
                    if local {
                        ev.read_clean_local += 1;
                    } else {
                        ev.read_clean_remote += 1;
                    }
                }
            },
            TxnKind::Write => match dirty_src {
                Some(d) => {
                    if dirty_on_path(me, home, d, self.cfg.nodes()) {
                        ev.write_dirty_2 += 1;
                    } else {
                        ev.write_dirty_1 += 1;
                    }
                }
                None => {
                    ev.record_write_miss(t.invalidated > 0, local);
                    ev.invalidated_copies += t.invalidated;
                }
            },
            TxnKind::Upgrade => {
                ev.record_upgrade(t.invalidated > 0, local);
                ev.invalidated_copies += t.invalidated;
            }
        }
    }

    // ------------------------------------------------ directory home side

    fn home_receive(&mut self, msg: RingMessage, now: Time) {
        debug_assert_eq!(self.cfg.protocol, ProtocolKind::Directory);
        let block = msg.block;
        if self.dir.try_lock(block) {
            self.home_txns.insert(block.raw(), HomeTxn { req: msg, stage: None, converted: false });
            let home = msg.dst.index();
            let done = self.mem_done(home, now);
            self.schedule(done, Event::HomeAct { block: block.raw() });
        } else {
            self.home_pending.entry(block.raw()).or_default().push_back(msg);
            self.retries += 1;
        }
    }

    fn unlock_and_drain(&mut self, block: BlockAddr, now: Time) {
        self.dir.unlock(block);
        self.home_txns.remove(&block.raw());
        if let Some(queue) = self.home_pending.get_mut(&block.raw()) {
            if let Some(next) = queue.pop_front() {
                if queue.is_empty() {
                    self.home_pending.remove(&block.raw());
                }
                self.home_receive(next, now);
            } else {
                self.home_pending.remove(&block.raw());
            }
        }
    }

    fn home_act(&mut self, block: BlockAddr, now: Time) {
        let ht = *self.home_txns.get(&block.raw()).expect("home txn present");
        let req = ht.req;
        let home = req.dst;
        debug_assert_eq!(home, self.home_of(block));
        if matches!(req.kind, MsgKind::DirRead | MsgKind::DirWrite | MsgKind::DirUpgrade) {
            self.obs.txn_mark(req.requester.index(), "home", now);
        }
        match req.kind {
            MsgKind::WriteBack => {
                let evictor = req.src;
                // The buffer entry is the liveness token for an in-flight
                // write-back: `reclaim_own_writeback` clears it when the
                // evictor's own re-miss overtakes the message, and the home
                // must then drop the stale arrival — by the time it lands the
                // block may already be granted back to the evictor, and
                // clearing the entry would orphan that copy.
                let live = self.nodes[evictor.index()].wb_buffer.remove(&block.raw());
                let entry = self.dir.entry(block);
                if live && entry.owner == Some(evictor) {
                    self.dir.remove_sharer(block, evictor);
                }
                self.unlock_and_drain(block, now);
            }
            MsgKind::DirRead => {
                self.unpoison(req.requester, block);
                self.home_read(req, now);
            }
            MsgKind::DirWrite => {
                self.unpoison(req.requester, block);
                self.home_write(req, now, false);
            }
            MsgKind::DirUpgrade => {
                self.unpoison(req.requester, block);
                let entry = self.dir.entry(block);
                if transitions::upgrade_must_convert(&entry, req.requester) {
                    // The upgrader's line was invalidated while the request
                    // waited: serve it as a write miss instead.
                    self.home_write(req, now, true);
                } else {
                    debug_assert!(entry.owner.is_none(), "upgrader coexists with an owner");
                    self.home_upgrade(req, now);
                }
            }
            _ => unreachable!("home_act on non-request {:?}", req.kind),
        }
    }

    fn measuring_requester(&self, req: &RingMessage) -> bool {
        self.procs.measuring(req.requester.index())
    }

    fn requester_region(&self, req: &RingMessage) -> Region {
        self.nodes[req.requester.index()].txn.as_ref().map_or(Region::Shared, |t| t.region)
    }

    /// The home is about to multicast an invalidation: it also invalidates
    /// its own cached copy (it observes its own probe immediately) unless it
    /// is the exempt requester.
    fn home_self_invalidate(&mut self, home: NodeId, requester: NodeId, block: BlockAddr) {
        if home != requester {
            self.drop_line(home.index(), block);
            self.poison_pending_read(home.index(), block);
        }
    }

    /// If the directory says the requester itself owns the block, its
    /// write-back must be in flight: the home pulls it in place (clearing
    /// the evictor's buffer models the acknowledgment) so the request can
    /// proceed against clean memory.
    fn reclaim_own_writeback(&mut self, block: BlockAddr, requester: NodeId) {
        let entry = self.dir.entry(block);
        if transitions::must_reclaim_writeback(&entry, requester) {
            debug_assert!(
                self.nodes[requester.index()].wb_buffer.contains(&block.raw()),
                "directory owner misses without a write-back in flight"
            );
            self.dir.remove_sharer(block, requester);
            self.nodes[requester.index()].wb_buffer.remove(&block.raw());
        }
    }

    fn home_read(&mut self, req: RingMessage, now: Time) {
        let block = req.block;
        let home = req.dst;
        let requester = req.requester;
        self.reclaim_own_writeback(block, requester);
        let entry = self.dir.entry(block);
        let measuring = self.measuring_requester(&req);
        let region = self.requester_region(&req);
        let local = home == requester;
        match transitions::dir_action(&entry, requester, DirRequest::Read) {
            DirAction::ForwardRead { owner: d } => {
                debug_assert_ne!(d, requester, "requester misses on a block it owns");
                if measuring {
                    if region == Region::Private {
                        self.procs.events.private_misses += 1;
                    } else if dirty_on_path(requester, home, d, self.cfg.nodes()) {
                        self.procs.events.read_dirty_2 += 1;
                    } else {
                        self.procs.events.read_dirty_1 += 1;
                    }
                }
                let fwd =
                    RingMessage::for_requester(MsgKind::DirFwdRead, block, home, d, requester);
                // Record the requester now, not when the MemUpdate returns:
                // the requester can fill (data comes straight from the owner)
                // and evict again before the update reaches the home, and its
                // replacement hint must find the presence bit to clear.
                self.dir.add_sharer(block, requester);
                self.home_txns.insert(
                    block.raw(),
                    HomeTxn { req, stage: Some(HomeStage::AwaitUpdate), converted: false },
                );
                self.schedule(now, Event::Send { node: home.index(), msg: fwd });
            }
            DirAction::GrantData => {
                if measuring {
                    if region == Region::Private {
                        self.procs.events.private_misses += 1;
                    } else if local {
                        self.procs.events.read_clean_local += 1;
                    } else {
                        self.procs.events.read_clean_remote += 1;
                    }
                }
                self.dir.add_sharer(block, requester);
                let data = RingMessage::for_requester(
                    MsgKind::BlockData,
                    block,
                    home,
                    requester,
                    requester,
                );
                self.schedule(now, Event::Send { node: home.index(), msg: data });
                self.unlock_and_drain(block, now);
            }
            DirAction::ForwardWrite { .. } | DirAction::InvalidateSharers | DirAction::GrantAck => {
                unreachable!("read request dispatched to a write action")
            }
        }
    }

    fn home_write(&mut self, req: RingMessage, now: Time, converted_upgrade: bool) {
        let block = req.block;
        let home = req.dst;
        let requester = req.requester;
        self.reclaim_own_writeback(block, requester);
        let entry = self.dir.entry(block);
        let measuring = self.measuring_requester(&req);
        let region = self.requester_region(&req);
        let local = home == requester;
        let others = entry.other_sharers(requester);
        match transitions::dir_action(&entry, requester, DirRequest::Write) {
            DirAction::ForwardWrite { owner: d } => {
                debug_assert_ne!(d, requester);
                if measuring {
                    if region == Region::Private {
                        self.procs.events.private_misses += 1;
                    } else if dirty_on_path(requester, home, d, self.cfg.nodes()) {
                        self.procs.events.write_dirty_2 += 1;
                    } else {
                        self.procs.events.write_dirty_1 += 1;
                    }
                }
                let fwd =
                    RingMessage::for_requester(MsgKind::DirFwdWrite, block, home, d, requester);
                self.home_txns.insert(
                    block.raw(),
                    HomeTxn {
                        req,
                        stage: Some(HomeStage::AwaitUpdate),
                        converted: converted_upgrade,
                    },
                );
                self.schedule(now, Event::Send { node: home.index(), msg: fwd });
            }
            action @ (DirAction::InvalidateSharers | DirAction::GrantData) => {
                if measuring {
                    if region == Region::Private {
                        if !converted_upgrade {
                            self.procs.events.private_misses += 1;
                        }
                    } else {
                        self.procs.events.record_write_miss(others != 0, local);
                        self.procs.events.invalidated_copies += others.count_ones() as u64;
                    }
                }
                if action == DirAction::InvalidateSharers {
                    self.home_self_invalidate(home, requester, block);
                    let inval =
                        RingMessage::for_requester(MsgKind::DirInval, block, home, home, requester);
                    self.home_txns.insert(
                        block.raw(),
                        HomeTxn {
                            req,
                            stage: Some(HomeStage::AwaitInval),
                            converted: converted_upgrade,
                        },
                    );
                    self.schedule(now, Event::Send { node: home.index(), msg: inval });
                } else {
                    self.dir.set_owner(block, requester);
                    let data = RingMessage::for_requester(
                        MsgKind::BlockData,
                        block,
                        home,
                        requester,
                        requester,
                    );
                    self.schedule(now, Event::Send { node: home.index(), msg: data });
                    self.unlock_and_drain(block, now);
                }
            }
            DirAction::ForwardRead { .. } | DirAction::GrantAck => {
                unreachable!("write request dispatched to a read/upgrade action")
            }
        }
    }

    fn home_upgrade(&mut self, req: RingMessage, now: Time) {
        let block = req.block;
        let home = req.dst;
        let requester = req.requester;
        let entry = self.dir.entry(block);
        let others = entry.other_sharers(requester);
        let measuring = self.measuring_requester(&req);
        let region = self.requester_region(&req);
        let local = home == requester;
        if measuring && region == Region::Shared {
            self.procs.events.record_upgrade(others != 0, local);
            self.procs.events.invalidated_copies += others.count_ones() as u64;
        } else if measuring && region == Region::Private && others == 0 {
            self.procs.events.record_upgrade(false, local);
        }
        match transitions::dir_action(&entry, requester, DirRequest::Upgrade) {
            DirAction::InvalidateSharers => {
                self.home_self_invalidate(home, requester, block);
                let inval =
                    RingMessage::for_requester(MsgKind::DirInval, block, home, home, requester);
                self.home_txns.insert(
                    block.raw(),
                    HomeTxn { req, stage: Some(HomeStage::AwaitInval), converted: false },
                );
                self.schedule(now, Event::Send { node: home.index(), msg: inval });
            }
            DirAction::GrantAck => {
                self.dir.set_owner(block, requester);
                let ack =
                    RingMessage::for_requester(MsgKind::DirAck, block, home, requester, requester);
                self.schedule(now, Event::Send { node: home.index(), msg: ack });
                self.unlock_and_drain(block, now);
            }
            DirAction::ForwardRead { .. }
            | DirAction::ForwardWrite { .. }
            | DirAction::GrantData => {
                unreachable!("well-formed upgrade dispatched to a miss action")
            }
        }
    }

    /// The multicast invalidation returned to the home: reply to the
    /// requester and commit.
    fn inval_returned(&mut self, msg: RingMessage, now: Time) {
        let block = msg.block;
        let ht = *self.home_txns.get(&block.raw()).expect("inval context");
        debug_assert_eq!(ht.stage, Some(HomeStage::AwaitInval));
        let req = ht.req;
        let home = req.dst;
        let requester = req.requester;
        self.dir.set_owner(block, requester);
        let reply_kind = match req.kind {
            // A converted upgrade is served as a write miss: the requester's
            // line is gone, so the reply must carry the block.
            MsgKind::DirUpgrade if !ht.converted => MsgKind::DirAck,
            _ => MsgKind::BlockData,
        };
        let reply = RingMessage::for_requester(reply_kind, block, home, requester, requester);
        self.schedule(now, Event::Send { node: home.index(), msg: reply });
        self.unlock_and_drain(block, now);
    }

    /// The dirty node's memory/directory refresh arrived at the home.
    fn update_received(&mut self, msg: RingMessage, now: Time) {
        let block = msg.block;
        let ht = *self.home_txns.get(&block.raw()).expect("update context");
        debug_assert_eq!(ht.stage, Some(HomeStage::AwaitUpdate));
        let req = ht.req;
        let requester = req.requester;
        let d = msg.src;
        match req.kind {
            MsgKind::DirRead => {
                // The requester's presence bit was set when the forward was
                // launched (see `home_read`); only the old owner's status
                // needs settling here.
                self.dir.clear_owner(block);
                if !msg.retained {
                    self.dir.remove_sharer(block, d);
                }
            }
            _ => {
                self.dir.set_owner(block, requester);
            }
        }
        self.unlock_and_drain(block, now);
    }

    /// A forward reached the (current or former) dirty node: supply data.
    fn serve_forward(&mut self, i: usize, fwd: RingMessage, now: Time) {
        let me = NodeId::new(i);
        let block = fwd.block;
        let home = fwd.src;
        let state = self.nodes[i].cache.state_of(block);
        let buffered = self.nodes[i].wb_buffer.contains(&block.raw());
        debug_assert!(
            state == LineState::We || buffered,
            "forward to a node without the data: {fwd} (state {state:?})"
        );
        if state != LineState::We {
            // Serving from the write-back buffer hands the data over; the
            // buffered entry — and with it the still-circulating WriteBack
            // message — is consumed, or the stale arrival could clear a
            // later re-grant of the block (its buffer bit is the liveness
            // token the home checks).
            self.nodes[i].wb_buffer.remove(&block.raw());
        }
        let retained = match fwd.kind {
            MsgKind::DirFwdRead => {
                if state == LineState::We {
                    self.nodes[i].cache.snoop_downgrade(block);
                    true
                } else {
                    false
                }
            }
            MsgKind::DirFwdWrite => {
                if state == LineState::We {
                    self.drop_line(i, block);
                }
                false
            }
            _ => unreachable!("serve_forward on non-forward"),
        };
        let data =
            RingMessage::for_requester(MsgKind::BlockData, block, me, fwd.requester, fwd.requester)
                .with_from_dirty(true);
        let update = RingMessage::new(MsgKind::MemUpdate, block, me, home).with_retained(retained);
        let at = now + self.cfg.supply_latency;
        self.obs.txn_mark(fwd.requester.index(), "forward", at);
        self.schedule(at, Event::Send { node: i, msg: data });
        self.schedule(at, Event::Send { node: i, msg: update });
    }

    // ------------------------------------------------------------ report

    fn build_report(&mut self) -> SimReport {
        let total_stats = self.ring.stats();
        let (base, _) = self.snapshot.unwrap_or((ringsim_ring::RingStats::default(), Time::ZERO));
        let window = ringsim_ring::RingStats {
            cycles: total_stats.cycles - base.cycles,
            inserted: total_stats.inserted - base.inserted,
            removed: total_stats.removed - base.removed,
            occupied_slot_cycles: total_stats.occupied_slot_cycles - base.occupied_slot_cycles,
            occupied_probe_cycles: total_stats.occupied_probe_cycles - base.occupied_probe_cycles,
            occupied_block_cycles: total_stats.occupied_block_cycles - base.occupied_block_cycles,
        };
        self.procs.report(
            self.cfg.protocol.name().to_owned(),
            window.slot_utilization(self.ring.layout().slot_count()),
            window.probe_utilization(self.ring.probe_slots()),
            window.block_utilization(self.ring.block_slots()),
            self.retries,
        )
    }

    /// Coherence state of `block` in node `i`'s cache (inspection hook for
    /// tests and tools).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn cache_state(&self, i: usize, block: BlockAddr) -> LineState {
        self.nodes[i].cache.state_of(block)
    }

    /// Accumulated event counts so far (also available in the final
    /// report).
    #[must_use]
    pub fn events(&self) -> CoherenceEvents {
        self.procs.events
    }

    /// Number of `(node, slot)` arrivals the run has handled so far — the
    /// slot pass's work count. A dense pass would handle every arrival.
    #[must_use]
    pub fn slot_visits(&self) -> u64 {
        self.dispatch.visits
    }

    /// Runtime sanitizer hook, run after step (3) of each cycle: every
    /// arrival the sparse pass skipped (`visited` names the nodes it
    /// handled) was a no-op. Judged from ground truth — queues, caches,
    /// transactions — not from the dispatch masks.
    fn sanitize_skipped_slots(&self, visited: u64) {
        let cycle = self.ring.cycle();
        let mut skipped = self.dispatch.arrivals_at(cycle) & !visited;
        while skipped != 0 {
            let me = NodeId::new(skipped.trailing_zeros() as usize);
            skipped &= skipped - 1;
            let slot = self.ring.arrival(me).expect("arrival mask matches the layout");
            let node = &self.nodes[me.index()];
            let fault = match self.ring.peek(slot) {
                None if self.first_fit(me.index(), self.ring.kind_of(slot)).is_none() => None,
                None => Some("an empty slot passed a node with a message that fits it".to_owned()),
                Some(msg) if removes_at(msg, me) => Some(format!("{msg} passed its destination")),
                Some(msg) => {
                    let snooped = msg.kind.is_snoop_probe()
                        || (msg.kind == MsgKind::DirInval && msg.requester != me);
                    let ignored = node.cache.state_of(msg.block) == LineState::Inv
                        && node.txn.as_ref().is_none_or(|t| t.block != msg.block)
                        && self.home_of(msg.block) != me;
                    (snooped && !ignored).then(|| format!("{msg} passed a node that acts on it"))
                }
            };
            if let Some(fault) = fault {
                panic!("slot sanitizer: cycle {cycle}, {me}, {slot:?}: {fault}");
            }
        }
    }

    /// Runtime sanitizer hook: re-checks the shared coherence invariants
    /// for one block at a transaction-retire boundary. The carve-outs match
    /// the `ringsim-check` model checker, so these hold at any instant.
    fn sanitize_retired_block(&self, block: BlockAddr) {
        let states: Vec<LineState> = self.nodes.iter().map(|n| n.cache.state_of(block)).collect();
        let conflicting: Vec<bool> =
            self.nodes.iter().map(|n| n.txn.as_ref().is_some_and(|t| t.block == block)).collect();
        sanitize::check_swmr(block, &states, &conflicting);
        if self.cfg.protocol == ProtocolKind::Snooping {
            sanitize::check_we_implies_dirty(block, &states, self.mem.is_dirty(block));
        }
    }

    /// Checks global single-writer / reader-consistency invariants over all
    /// caches (test helper; O(cache lines × nodes)).
    ///
    /// # Errors
    ///
    /// Returns a description of the first violation found.
    pub fn check_coherence(&self) -> Result<(), String> {
        let mut writers: HashMap<u64, NodeId> = HashMap::new();
        let mut readers: HashMap<u64, Vec<NodeId>> = HashMap::new();
        for (i, node) in self.nodes.iter().enumerate() {
            for (block, state) in node.cache.resident_blocks() {
                match state {
                    LineState::We => {
                        if let Some(prev) = writers.insert(block.raw(), NodeId::new(i)) {
                            return Err(format!("{block}: two writers {prev} and P{i}"));
                        }
                    }
                    LineState::Rs => readers.entry(block.raw()).or_default().push(NodeId::new(i)),
                    LineState::Inv => {}
                }
            }
        }
        for (&raw, &w) in &writers {
            // A writer may coexist with readers only transiently while those
            // readers hold in-flight conflicting transactions; at quiescence
            // (when this is called) there must be none.
            if let Some(rs) = readers.get(&raw) {
                let stale: Vec<_> = rs
                    .iter()
                    .filter(|r| {
                        self.nodes[r.index()].txn.as_ref().is_none_or(|t| t.block.raw() != raw)
                    })
                    .collect();
                if !stale.is_empty() {
                    return Err(format!(
                        "B{raw:#x}: writer {w} coexists with settled readers {stale:?}"
                    ));
                }
            }
        }
        Ok(())
    }
}

/// `true` when the dirty node lies on the requester→home segment of the
/// ring, forcing a second traversal (paper Figure 2b).
pub(crate) fn dirty_on_path(requester: NodeId, home: NodeId, dirty: NodeId, nodes: usize) -> bool {
    if home == requester || dirty == home {
        return false;
    }
    requester.hops_to(dirty, nodes) < requester.hops_to(home, nodes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ringsim_trace::{Benchmark, WorkloadSpec};

    fn run(protocol: ProtocolKind, procs: usize, refs: u64) -> (SimReport, RingSystem) {
        let cfg = SystemConfig::ring_500mhz(protocol, procs);
        let workload = Workload::new(WorkloadSpec::demo(procs).with_refs(refs)).unwrap();
        let mut sys = RingSystem::new(cfg, workload).unwrap();
        let report = sys.run();
        (report, sys)
    }

    #[test]
    fn snooping_runs_to_completion() {
        let (report, sys) = run(ProtocolKind::Snooping, 4, 3_000);
        assert!(report.proc_util > 0.0 && report.proc_util <= 1.0);
        assert!(report.ring_util > 0.0 && report.ring_util < 1.0);
        assert!(report.miss_latency.count() > 0);
        assert!(
            report.miss_latency.mean() > 100.0,
            "miss latency {} ns",
            report.miss_latency.mean()
        );
        sys.check_coherence().unwrap();
    }

    #[test]
    fn directory_runs_to_completion() {
        let (report, sys) = run(ProtocolKind::Directory, 4, 3_000);
        assert!(report.proc_util > 0.0 && report.proc_util <= 1.0);
        assert!(report.miss_latency.count() > 0);
        sys.check_coherence().unwrap();
    }

    #[test]
    fn events_match_reference_mix() {
        let (report, _) = run(ProtocolKind::Snooping, 4, 4_000);
        assert_eq!(report.events.data_refs(), 4 * 4_000);
        assert!(report.events.shared_misses() > 0);
    }

    #[test]
    fn protocols_agree_on_event_counts_roughly() {
        let (snoop, _) = run(ProtocolKind::Snooping, 4, 4_000);
        let (dir, _) = run(ProtocolKind::Directory, 4, 4_000);
        let s = snoop.events.shared_misses() as f64;
        let d = dir.events.shared_misses() as f64;
        let rel = (s - d).abs() / s.max(d);
        assert!(rel < 0.15, "snoop {s} vs dir {d} misses differ by {rel}");
    }

    #[test]
    fn snooping_miss_latency_exceeds_floor() {
        // Round trip (30 cycles = 60 ns) + memory 140 ns is the absolute
        // floor for a remote miss on an 8-node ring.
        let (report, _) = run(ProtocolKind::Snooping, 8, 2_000);
        assert!(report.miss_latency.min().unwrap_or(0.0) >= 139.0);
    }

    #[test]
    fn faster_processors_load_the_ring_more() {
        let mk = |cycle_ns| {
            let cfg = SystemConfig::ring_500mhz(ProtocolKind::Snooping, 8)
                .with_proc_cycle(Time::from_ns(cycle_ns));
            let w = Workload::new(WorkloadSpec::demo(8).with_refs(3_000)).unwrap();
            RingSystem::new(cfg, w).unwrap().run()
        };
        let slow = mk(20);
        let fast = mk(2);
        assert!(
            fast.ring_util > slow.ring_util,
            "fast {} <= slow {}",
            fast.ring_util,
            slow.ring_util
        );
    }

    #[test]
    fn directory_fig5_classes_populated() {
        let (report, _) = run(ProtocolKind::Directory, 8, 4_000);
        let (c1, d1, c2) = report.fig5_percentages();
        assert!(c1 > 0.0);
        assert!(d1 + c2 > 0.0, "demo workload has read-write sharing");
        assert!((c1 + d1 + c2 - 100.0).abs() < 1e-9);
    }

    #[test]
    fn deterministic_given_seed() {
        let (a, _) = run(ProtocolKind::Snooping, 4, 2_000);
        let (b, _) = run(ProtocolKind::Snooping, 4, 2_000);
        assert_eq!(a.sim_end, b.sim_end);
        assert_eq!(a.events, b.events);
    }

    #[test]
    fn sparse_dispatch_visits_a_fraction_of_the_arrivals() {
        for protocol in [ProtocolKind::Snooping, ProtocolKind::Directory] {
            let mut spec = Benchmark::Weather.spec(64).unwrap();
            spec.data_refs_per_proc = 300;
            spec.warmup_refs_per_proc = 100;
            let cfg = SystemConfig::ring_500mhz(protocol, 64);
            let mut sys = RingSystem::new(cfg, Workload::new(spec).unwrap()).unwrap();
            sys.run();
            // A dense pass handles every arrival of every simulated cycle,
            // the last one included (the run stops before advancing).
            let per_phase: Vec<u64> =
                sys.ring.layout().arrival_schedule().iter().map(|p| p.len() as u64).collect();
            let arrivals: u64 = (0..=sys.ring.cycle())
                .map(|c| per_phase[(c % per_phase.len() as u64) as usize])
                .sum();
            // The sparse pass handles about 2% of the arrivals (1.4%
            // directory); a pass that also visited every sender at every
            // arrival would handle about 7%.
            let visits = sys.slot_visits();
            assert!(visits > 0);
            assert!(
                visits * 20 < arrivals,
                "{protocol:?}: {visits} visits of {arrivals} arrivals ({:.1}%)",
                100.0 * visits as f64 / arrivals as f64
            );
        }
    }

    #[test]
    fn rejects_mismatched_workload() {
        let cfg = SystemConfig::ring_500mhz(ProtocolKind::Snooping, 8);
        let w = Workload::new(WorkloadSpec::demo(4)).unwrap();
        assert!(RingSystem::new(cfg, w).is_err());
    }
}
