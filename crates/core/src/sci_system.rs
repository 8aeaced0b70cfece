//! The timed SCI linked-list-directory ring simulator.
//!
//! The paper accounts for an SCI-like linked-list directory analytically
//! (Table 1); this backend makes it a runnable system: the same processors
//! and workloads as the other simulators, attached to a slotted ring whose
//! coherence state lives in per-block distributed sharing lists served at
//! each block's home node.
//!
//! Protocol truth is [`SciEngine`] — every home decision dispatches through
//! the guarded rule set `ringsim_proto::guarded::SCI_RULES`, the same table
//! the `ringsim-check` model checker exhausts. The timing model on top:
//!
//! * the home serialises transactions per block (FIFO): a request is served
//!   no earlier than the completion of the block's previous transaction,
//! * a transaction's ring time is `traversals × revolution`, where
//!   `traversals` is the engine's closed-path count over the nodes the
//!   messages visit (requester → home → head/list walk) and `revolution`
//!   is one full ring rotation at the configured clock,
//! * every served transaction pays one directory/memory access
//!   (`mem_latency`); a dirty head supplying data adds `supply_latency`.
//!
//! Like the bus simulator, list and cache mutations are applied atomically
//! at the serialisation point while data delivery and processor wake-up
//! keep their latencies; the retire-time sanitizer re-checks SWMR on every
//! completed transaction.

use ringsim_cache::{AccessClass, LineState};
use ringsim_obs::{Obs, ObsConfig, Recorder};
use ringsim_proto::sci::SciEngine;
use ringsim_proto::table1::TraversalReport;
use ringsim_ring::RingConfig;
use ringsim_trace::Workload;
use ringsim_types::{AccessKind, BlockAddr, ConfigError, FnvMap, MemRef, NodeId, Region, Time};

use crate::proc::{Issue, MissClass, Processors, TxnKind, PROC_QUANTUM};
use crate::report::SimReport;
use crate::sanitize;

/// Windowed-accumulator slot for home-queue wait (see [`Obs::acc_add`]).
const ACC_HOME_WAIT: usize = 0;

/// Configuration of an SCI linked-list-directory ring system.
///
/// # Examples
///
/// ```
/// use ringsim_core::SciSystemConfig;
/// use ringsim_types::Time;
///
/// let cfg = SciSystemConfig::sci_500mhz(16).with_mips(100);
/// cfg.validate().unwrap();
/// assert_eq!(cfg.proc_cycle, Time::from_ns(10));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SciSystemConfig {
    /// Ring geometry and clock.
    pub ring: RingConfig,
    /// Processor cycle time.
    pub proc_cycle: Time,
    /// Directory/memory access time at the home (140 ns in the paper).
    pub mem_latency: Time,
    /// Extra supply time when a dirty head provides the data.
    pub supply_latency: Time,
}

impl SciSystemConfig {
    /// The paper's 500 MHz ring carrying the SCI directory, with 50 MIPS
    /// processors.
    #[must_use]
    pub fn sci_500mhz(nodes: usize) -> Self {
        Self {
            ring: RingConfig::standard_500mhz(nodes),
            proc_cycle: Time::from_ns(20),
            mem_latency: Time::from_ns(140),
            supply_latency: Time::from_ns(140),
        }
    }

    /// The 250 MHz variant.
    #[must_use]
    pub fn sci_250mhz(nodes: usize) -> Self {
        Self { ring: RingConfig::standard_250mhz(nodes), ..Self::sci_500mhz(nodes) }
    }

    /// Number of nodes.
    #[must_use]
    pub fn nodes(&self) -> usize {
        self.ring.nodes
    }

    /// Builder-style processor cycle override.
    #[must_use]
    pub fn with_proc_cycle(mut self, proc_cycle: Time) -> Self {
        self.proc_cycle = proc_cycle;
        self
    }

    /// Builder-style MIPS override.
    ///
    /// # Panics
    ///
    /// Panics if `mips` is zero.
    #[must_use]
    pub fn with_mips(self, mips: u64) -> Self {
        assert!(mips > 0, "mips must be positive");
        self.with_proc_cycle(Time::from_ps(1_000_000 / mips))
    }

    /// Validates all parts.
    ///
    /// # Errors
    ///
    /// Returns the first [`ConfigError`] found.
    pub fn validate(&self) -> Result<(), ConfigError> {
        self.ring.validate()?;
        if self.ring.nodes > 64 {
            return Err(ConfigError::new("ring.nodes", "at most 64 nodes supported"));
        }
        if self.proc_cycle.is_zero() || self.mem_latency.is_zero() || self.supply_latency.is_zero()
        {
            return Err(ConfigError::new("timing", "all latencies must be non-zero"));
        }
        Ok(())
    }
}

#[derive(Debug, Clone, Copy)]
struct Txn {
    block: BlockAddr,
    kind: TxnKind,
    start: Time,
    served: MissClass,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Event {
    /// Resume the processor's issue loop.
    ProcReady { node: usize },
    /// The blocked processor's transaction finishes.
    Complete { node: usize },
}

/// The timed SCI ring system simulator.
///
/// # Examples
///
/// ```
/// use ringsim_core::{SciRingSystem, SciSystemConfig};
/// use ringsim_trace::{Workload, WorkloadSpec};
///
/// let cfg = SciSystemConfig::sci_500mhz(4);
/// let workload = Workload::new(WorkloadSpec::demo(4).with_refs(2_000)).unwrap();
/// let report = SciRingSystem::new(cfg, workload).unwrap().run();
/// assert!(report.proc_util > 0.0);
/// ```
pub struct SciRingSystem {
    cfg: SciSystemConfig,
    /// Protocol truth: caches + sharing lists + traversal accounting,
    /// every home decision dispatched through the SCI rule set.
    engine: SciEngine<Box<dyn Fn(BlockAddr) -> NodeId>>,
    procs: Processors,
    /// Each node's outstanding transaction.
    txns: Vec<Option<Txn>>,
    /// Per-block home-queue serialisation: earliest time the home will
    /// admit the block's next transaction. Private blocks are skipped
    /// (their single user serialises itself).
    block_free: FnvMap<u64, Time>,
    /// One full ring rotation at the configured clock.
    revolution: Time,
    queue: crate::EventQueue<Event>,
    now: Time,
    /// Total in-flight ring time charged so far (for utilisation).
    travel: Time,
    /// `(travel, now)` at the instant every node entered its measured
    /// window.
    snapshot: Option<(Time, Time)>,
    // Telemetry (no-op unless `attach_obs` was called).
    obs: Obs,
    obs_sci_tl: usize,
    obs_window: (Time, Time),
}

impl SciRingSystem {
    /// Builds the system.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] when the configuration is invalid or the
    /// workload's processor count does not match the ring's node count.
    pub fn new(cfg: SciSystemConfig, workload: Workload) -> Result<Self, ConfigError> {
        cfg.validate()?;
        let space = workload.space();
        let procs = Processors::new(workload, cfg.nodes(), cfg.proc_cycle)?;
        let layout = cfg.ring.layout()?;
        let revolution = cfg.ring.clock_period * layout.round_trip_cycles() as u64;
        let home: Box<dyn Fn(BlockAddr) -> NodeId> = Box::new(move |b| space.home_of_block(b));
        let engine = SciEngine::new(layout, home)?;
        Ok(Self {
            cfg,
            engine,
            procs,
            txns: vec![None; cfg.nodes()],
            block_free: FnvMap::default(),
            revolution,
            queue: crate::EventQueue::new(),
            now: Time::ZERO,
            travel: Time::ZERO,
            snapshot: None,
            obs: Obs::disabled(),
            obs_sci_tl: usize::MAX,
            obs_window: (Time::ZERO, Time::ZERO),
        })
    }

    /// Enables telemetry for this run: per-transaction trace events plus a
    /// `"sci"` gauge timeline (ring travel fraction over the sampling
    /// window, outstanding transactions, mean home-queue wait). Strictly
    /// observational.
    pub fn attach_obs(&mut self, cfg: ObsConfig) {
        let mut obs = Obs::enabled(cfg, self.txns.len());
        self.obs_sci_tl = obs.add_timeline("sci", &["travel", "outstanding", "home_wait_ns"]);
        self.obs = obs;
    }

    /// Takes the telemetry recorder after a run; `None` unless
    /// [`SciRingSystem::attach_obs`] was called.
    pub fn take_obs(&mut self) -> Option<Recorder> {
        std::mem::take(&mut self.obs).into_recorder()
    }

    /// Replays `refs` through the protocol engine directly, in the order
    /// given, without any timing — the untimed reference path. Returns the
    /// accumulated traversal distributions, which match
    /// [`ringsim_proto::table1::LinkedListAccountant`] on the same stream
    /// (a test pins that equivalence). Intended for freshly built systems;
    /// do not mix with [`SciRingSystem::run`].
    pub fn replay_reference(&mut self, refs: impl IntoIterator<Item = MemRef>) -> TraversalReport {
        for r in refs {
            self.engine.process(r, None);
        }
        self.engine.report()
    }

    /// The traversal distributions the protocol engine accumulated so far
    /// (both timed runs and [`SciRingSystem::replay_reference`] feed it).
    #[must_use]
    pub fn traversal_report(&self) -> TraversalReport {
        self.engine.report()
    }

    /// Coherence state of `block` in node `i`'s cache (inspection hook).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn cache_state(&self, i: usize, block: BlockAddr) -> LineState {
        self.engine.state_of(NodeId::new(i), block)
    }

    fn schedule(&mut self, at: Time, ev: Event) {
        self.queue.schedule(at, ev);
    }

    /// Runs to completion.
    pub fn run(&mut self) -> SimReport {
        for i in 0..self.txns.len() {
            self.schedule(Time::ZERO, Event::ProcReady { node: i });
        }
        while let Some((t, ev)) = self.queue.pop() {
            self.now = t;
            match ev {
                Event::ProcReady { node } => self.step_processor(node),
                Event::Complete { node } => self.complete(node),
            }
            if self.snapshot.is_none() && self.procs.all_measuring() {
                self.snapshot = Some((self.travel, self.now));
            }
            if self.obs.sample_due(self.now) {
                self.sample_gauges();
            }
        }
        self.build_report()
    }

    /// Pushes one row onto the `"sci"` gauge timeline: the travel fraction
    /// is the delta over the window since the previous sample.
    fn sample_gauges(&mut self) {
        let (prev, since) = self.obs_window;
        let window = self.now.saturating_sub(since);
        let frac = if window.is_zero() {
            0.0
        } else {
            (self.travel.saturating_sub(prev).as_ps() as f64 / window.as_ps() as f64).min(1.0)
        };
        let outstanding = self.txns.iter().filter(|t| t.is_some()).count() as f64;
        let wait = self.obs.acc_take_mean(ACC_HOME_WAIT);
        self.obs.sample(self.obs_sci_tl, self.now, vec![frac, outstanding, wait]);
        self.obs_window = (self.travel, self.now);
    }

    fn step_processor(&mut self, i: usize) {
        loop {
            let (r, block) = match self.procs.next_ref(i, self.now, self.now + PROC_QUANTUM) {
                Issue::Ref(r, block) => (r, block),
                Issue::Ahead(at) => return self.schedule(at, Event::ProcReady { node: i }),
                Issue::Done => return,
            };
            // The serialisation point: the home admits the request and the
            // engine applies list + cache mutations atomically; only the
            // latencies play out in event time.
            let step = self.engine.process(r, None);
            if step.class != AccessClass::Hit {
                return self.issue_txn(i, r, block, step);
            }
        }
    }

    fn issue_txn(
        &mut self,
        i: usize,
        r: MemRef,
        block: BlockAddr,
        step: ringsim_proto::sci::SciStep,
    ) {
        let me = NodeId::new(i);
        let home = self.engine.home(block);
        let local = home == me;
        let measuring = self.procs.measuring(i);
        let kind = TxnKind::of(step.class, r.kind);
        let is_upgrade = kind == TxnKind::Upgrade;
        let start = self.procs.begin(&mut self.obs, i, kind, block);

        // Home-queue admission: shared blocks serialise per block.
        let serve_at = if r.region == Region::Shared {
            let free = self.block_free.get(&block.raw()).copied().unwrap_or(Time::ZERO);
            start.max(free)
        } else {
            start
        };
        self.obs.acc_add(ACC_HOME_WAIT, serve_at.saturating_sub(start).as_ns_f64());
        self.obs.txn_mark(i, "admit", serve_at);

        // Ring travel + the home's directory/memory access; a dirty head
        // supplying the data adds the cache-supply time.
        let travel = self.revolution * step.traversals as u64;
        let mut completion = serve_at + travel + self.cfg.mem_latency;
        if step.dirty_supply {
            completion += self.cfg.supply_latency;
        }
        self.travel += travel;
        if r.region == Region::Shared {
            self.block_free.insert(block.raw(), completion);
        }

        // Event classification, mirroring the other backends' buckets.
        if measuring {
            if r.region == Region::Private {
                if is_upgrade {
                    self.procs.events.record_upgrade(false, true);
                } else {
                    self.procs.events.private_misses += 1;
                }
            } else if is_upgrade {
                self.procs.events.record_upgrade(step.invalidated > 0, local);
                self.procs.events.invalidated_copies += step.invalidated as u64;
            } else if r.kind == AccessKind::Read {
                if step.dirty_supply {
                    if step.traversals >= 2 {
                        self.procs.events.read_dirty_2 += 1;
                    } else {
                        self.procs.events.read_dirty_1 += 1;
                    }
                } else if local {
                    self.procs.events.read_clean_local += 1;
                } else {
                    self.procs.events.read_clean_remote += 1;
                }
            } else {
                if step.dirty_supply {
                    if step.traversals >= 2 {
                        self.procs.events.write_dirty_2 += 1;
                    } else {
                        self.procs.events.write_dirty_1 += 1;
                    }
                } else {
                    self.procs.events.record_write_miss(step.invalidated > 0, local);
                }
                self.procs.events.invalidated_copies += step.invalidated as u64;
            }
        }

        let served = if step.dirty_supply {
            MissClass::Dirty
        } else if local {
            MissClass::Local
        } else {
            MissClass::CleanRemote
        };
        self.txns[i] = Some(Txn { block, kind, start, served });
        self.schedule(completion, Event::Complete { node: i });
    }

    fn complete(&mut self, i: usize) {
        let t = self.txns[i].take().expect("completing absent txn");
        if sanitize::sanitize_enabled() {
            // List and cache mutations are atomic at the serialisation
            // point, so SWMR must hold outright at every retire.
            let states: Vec<LineState> = (0..self.txns.len())
                .map(|j| self.engine.state_of(NodeId::new(j), t.block))
                .collect();
            sanitize::check_swmr(t.block, &states, &vec![false; states.len()]);
        }
        let miss = (t.kind != TxnKind::Upgrade).then_some(t.served);
        self.procs.retire(&mut self.obs, i, t.start, self.now, miss);
        self.step_processor(i);
    }

    fn build_report(&mut self) -> SimReport {
        let sim_end = self.procs.sim_end();
        let (base_travel, start) = self.snapshot.unwrap_or((Time::ZERO, Time::ZERO));
        let window = sim_end.saturating_sub(start);
        let travel = self.travel.saturating_sub(base_travel);
        let ring_util = if window.is_zero() {
            0.0
        } else {
            (travel.as_ps() as f64 / window.as_ps() as f64).min(1.0)
        };
        // SCI messages are point-to-point packets on one ring; the
        // request/data split of the slotted-ring backends does not apply,
        // so all travel is reported as probe traffic.
        self.procs.report("sci-linked-list".into(), ring_util, ring_util, 0.0, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ringsim_trace::WorkloadSpec;

    fn run(nodes: usize, refs: u64, mips: u64) -> SimReport {
        let cfg = SciSystemConfig::sci_500mhz(nodes).with_mips(mips);
        let w = Workload::new(WorkloadSpec::demo(nodes).with_refs(refs)).unwrap();
        SciRingSystem::new(cfg, w).unwrap().run()
    }

    #[test]
    fn runs_to_completion() {
        let r = run(4, 3_000, 50);
        assert_eq!(r.protocol, "sci-linked-list");
        assert!(r.proc_util > 0.0 && r.proc_util <= 1.0);
        assert!(r.miss_latency.count() > 0);
        assert_eq!(r.events.data_refs(), 4 * 3_000);
    }

    #[test]
    fn miss_latency_has_memory_floor() {
        let r = run(4, 2_000, 50);
        assert!(r.miss_latency.min().unwrap_or(0.0) >= 139.0);
    }

    #[test]
    fn slower_ring_means_longer_misses() {
        let w = || Workload::new(WorkloadSpec::demo(8).with_refs(2_500)).unwrap();
        let fast = SciRingSystem::new(SciSystemConfig::sci_500mhz(8), w()).unwrap().run();
        let slow = SciRingSystem::new(SciSystemConfig::sci_250mhz(8), w()).unwrap().run();
        assert!(
            slow.miss_latency.mean() > fast.miss_latency.mean(),
            "250 MHz {} vs 500 MHz {}",
            slow.miss_latency.mean(),
            fast.miss_latency.mean()
        );
    }

    #[test]
    fn deterministic() {
        let a = run(4, 2_000, 100);
        let b = run(4, 2_000, 100);
        assert_eq!(a.sim_end, b.sim_end);
        assert_eq!(a.events, b.events);
    }

    #[test]
    fn rejects_mismatched_workload() {
        let cfg = SciSystemConfig::sci_500mhz(8);
        let w = Workload::new(WorkloadSpec::demo(4)).unwrap();
        assert!(SciRingSystem::new(cfg, w).is_err());
    }
}
