//! The processor front-end shared by the ring, bus and SCI backends.
//!
//! The paper compares interconnects by driving the *same* processors and
//! workloads through each of them, so the processor model is one piece of
//! code. [`Processors`] owns every node's reference stream and issue clock,
//! the warm-up window, the reference mix and the measured latency
//! accumulators. A backend asks it for each node's next reference
//! ([`Processors::next_ref`]), resolves the reference in its own caches
//! and interconnect, and hands every finished transaction back
//! ([`Processors::retire`]).
//!
//! Each backend keeps its scheduling policy: the cycle-stepped ring steps
//! every processor whose issue time has come once per ring cycle, while the
//! event-driven bus and SCI backends let a processor run up to
//! [`PROC_QUANTUM`] ahead of the event clock.

use ringsim_cache::AccessClass;
use ringsim_obs::{LatencyHistogram, Obs};
use ringsim_trace::{NodeStream, Workload, BLOCK_BYTES};
use ringsim_types::stats::RunningMean;
use ringsim_types::{AccessKind, BlockAddr, CoherenceEvents, ConfigError, MemRef, Region, Time};

use crate::report::{summarize_nodes, ClassLatencies, NodeMeasure, SimReport};

/// Quantum of lookahead a processor of an event-driven backend may run
/// ahead of the global event clock while it keeps hitting in its cache.
/// Bounds the window in which a fast-forwarded node could miss a remote
/// invalidation.
pub(crate) const PROC_QUANTUM: Time = Time::from_ns(200);

/// The coherence transaction a reference that does not hit starts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum TxnKind {
    Read,
    Write,
    Upgrade,
}

impl TxnKind {
    /// The transaction a `kind` reference that classified as `class` (a
    /// miss or an upgrade) starts.
    pub(crate) fn of(class: AccessClass, kind: AccessKind) -> Self {
        match (class, kind) {
            (AccessClass::Upgrade, _) => TxnKind::Upgrade,
            (_, AccessKind::Read) => TxnKind::Read,
            (_, AccessKind::Write) => TxnKind::Write,
        }
    }

    /// The `op` name of the transaction's trace span.
    pub(crate) fn op(self) -> &'static str {
        match self {
            TxnKind::Read => "read",
            TxnKind::Write => "write",
            TxnKind::Upgrade => "upgrade",
        }
    }
}

/// Who served a miss, for the class-latency breakdown.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum MissClass {
    /// The requester's own memory bank.
    Local,
    /// A remote home, clean.
    CleanRemote,
    /// A dirty cache.
    Dirty,
}

/// What [`Processors::next_ref`] yields for one node.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Issue {
    /// The next reference and its block, issued at the node's issue time.
    Ref(MemRef, BlockAddr),
    /// The node's next issue time lies past the horizon.
    Ahead(Time),
    /// The node has finished its reference budget.
    Done,
}

/// One processor's issue state and measurements.
#[derive(Debug)]
struct Proc {
    stream: NodeStream,
    /// When the processor can issue its next reference.
    ready_at: Time,
    /// Fractional instruction cycles carried to the next reference.
    instr_carry: f64,
    refs_issued: u64,
    measuring: bool,
    measure_start: Time,
    /// Executing time inside the measured window.
    busy: Time,
    finish_at: Option<Time>,
    misses: u64,
    miss_lat: LatencyHistogram,
}

/// The processors of one system and everything they measure.
#[derive(Debug)]
pub(crate) struct Processors {
    procs: Vec<Proc>,
    proc_cycle: Time,
    warmup_refs: u64,
    total_refs: u64,
    /// Nodes past warm-up (measured-window check without a scan).
    measuring: usize,
    /// Nodes whose budget is done (termination check without a scan).
    finished: usize,
    /// Coherence event counts of the measured window. The front-end counts
    /// the reference mix; the backends count the transactions.
    pub(crate) events: CoherenceEvents,
    miss_lat: RunningMean,
    miss_hist: LatencyHistogram,
    upg_lat: RunningMean,
    class_lat: ClassLatencies,
}

impl Processors {
    /// One processor per stream of `workload`, on a system of `nodes`
    /// nodes.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] when the workload's processor count does
    /// not match `nodes`.
    pub(crate) fn new(
        workload: Workload,
        nodes: usize,
        proc_cycle: Time,
    ) -> Result<Self, ConfigError> {
        if workload.procs() != nodes {
            return Err(ConfigError::new(
                "workload.procs",
                format!("workload has {} processors, the system has {nodes}", workload.procs()),
            ));
        }
        let spec = workload.spec();
        let (warmup_refs, total_refs) =
            (spec.warmup_refs_per_proc, spec.warmup_refs_per_proc + spec.data_refs_per_proc);
        let procs = workload
            .into_streams()
            .into_iter()
            .map(|stream| Proc {
                stream,
                ready_at: Time::ZERO,
                instr_carry: 0.0,
                refs_issued: 0,
                measuring: false,
                measure_start: Time::ZERO,
                busy: Time::ZERO,
                finish_at: None,
                misses: 0,
                miss_lat: LatencyHistogram::new(),
            })
            .collect();
        Ok(Self {
            procs,
            proc_cycle,
            warmup_refs,
            total_refs,
            measuring: 0,
            finished: 0,
            events: CoherenceEvents::default(),
            miss_lat: RunningMean::default(),
            miss_hist: LatencyHistogram::new(),
            upg_lat: RunningMean::default(),
            class_lat: ClassLatencies::default(),
        })
    }

    /// Whether node `i` is past warm-up: only then do its events and
    /// latencies count.
    #[inline]
    pub(crate) fn measuring(&self, i: usize) -> bool {
        self.procs[i].measuring
    }

    /// Whether every node is past warm-up.
    #[inline]
    pub(crate) fn all_measuring(&self) -> bool {
        self.measuring == self.procs.len()
    }

    /// Whether every node has finished its budget.
    #[inline]
    pub(crate) fn all_finished(&self) -> bool {
        self.finished == self.procs.len()
    }

    /// Node `i`'s next issue time, or `None` once it has finished.
    #[inline]
    pub(crate) fn ready_at(&self, i: usize) -> Option<Time> {
        let p = &self.procs[i];
        if p.finish_at.is_some() {
            None
        } else {
            Some(p.ready_at)
        }
    }

    /// Issues node `i`'s next reference if its issue time is no later than
    /// `horizon`: charges its instruction time (fetches never miss;
    /// fractional instruction counts carry over), opens the measured window
    /// after warm-up and counts the reference mix. A node whose budget is
    /// spent finishes at its issue time, or at `now` if that is later. The
    /// caller steps only a node with no transaction outstanding.
    #[inline]
    pub(crate) fn next_ref(&mut self, i: usize, now: Time, horizon: Time) -> Issue {
        let p = &mut self.procs[i];
        if p.finish_at.is_some() {
            return Issue::Done;
        }
        if p.ready_at > horizon {
            return Issue::Ahead(p.ready_at);
        }
        if p.refs_issued == self.total_refs {
            p.finish_at = Some(p.ready_at.max(now));
            self.finished += 1;
            return Issue::Done;
        }
        let icycles = p.instr_carry + p.stream.instr_per_data();
        let whole = icycles.floor();
        p.instr_carry = icycles - whole;
        let cost = self.proc_cycle * (1 + whole as u64);
        if p.measuring {
            p.busy += cost;
        }
        p.ready_at += cost;
        let r = p.stream.next_ref();
        p.refs_issued += 1;
        if !p.measuring && p.refs_issued > self.warmup_refs {
            p.measuring = true;
            self.measuring += 1;
            p.measure_start = p.ready_at;
            p.busy = cost; // this reference is the first measured one
        }
        if p.measuring {
            let ev = &mut self.events;
            match (r.region, r.kind) {
                (Region::Private, AccessKind::Read) => ev.private_reads += 1,
                (Region::Private, AccessKind::Write) => ev.private_writes += 1,
                (Region::Shared, AccessKind::Read) => ev.shared_reads += 1,
                (Region::Shared, AccessKind::Write) => ev.shared_writes += 1,
            }
        }
        Issue::Ref(r, r.addr.block(BLOCK_BYTES))
    }

    /// Opens the trace span of node `i`'s `kind` transaction on `block`
    /// and returns its start: the node's issue time.
    pub(crate) fn begin(&self, obs: &mut Obs, i: usize, kind: TxnKind, block: BlockAddr) -> Time {
        let start = self.procs[i].ready_at;
        obs.txn_begin(i, kind.op(), block.raw(), start);
        start
    }

    /// Retires node `i`'s transaction started at `start` and finished at
    /// `done`: the node may issue again from `done`, and a measured
    /// transaction's latency is recorded and its trace span closed. `miss`
    /// is who served a miss; `None` marks an upgrade.
    pub(crate) fn retire(
        &mut self,
        obs: &mut Obs,
        i: usize,
        start: Time,
        done: Time,
        miss: Option<MissClass>,
    ) {
        let p = &mut self.procs[i];
        p.ready_at = p.ready_at.max(done);
        if !p.measuring {
            // Warm-up transactions count toward no metric; drop them from
            // the trace too, so spans and histograms agree.
            obs.txn_abandon(i);
            return;
        }
        let latency = done.saturating_sub(start);
        let Some(class) = miss else {
            self.upg_lat.push_time_ns(latency);
            self.class_lat.upgrade.record_time(latency);
            obs.txn_end(i, "upgrade", "upgrade", done);
            return;
        };
        self.miss_lat.push_time_ns(latency);
        self.miss_hist.record_time(latency);
        p.misses += 1;
        p.miss_lat.record_time(latency);
        let (hist, name) = match class {
            MissClass::Local => (&mut self.class_lat.local, "local"),
            MissClass::CleanRemote => (&mut self.class_lat.clean_remote, "clean_remote"),
            MissClass::Dirty => (&mut self.class_lat.dirty, "dirty"),
        };
        hist.record_time(latency);
        obs.txn_end(i, "miss", name, done);
    }

    /// When the last node finished (the end of the simulation).
    ///
    /// # Panics
    ///
    /// Panics if a node has not finished.
    pub(crate) fn sim_end(&self) -> Time {
        self.procs
            .iter()
            .map(|p| p.finish_at.expect("all nodes finished"))
            .max()
            .unwrap_or_default()
    }

    /// The run's report: the processor measurements plus the
    /// interconnect's protocol name, utilisations and retries. Also feeds
    /// the process-wide metrics sink when that is on.
    ///
    /// # Panics
    ///
    /// Panics if a node has not finished.
    pub(crate) fn report(
        &self,
        protocol: String,
        ring_util: f64,
        probe_util: f64,
        block_util: f64,
        retries: u64,
    ) -> SimReport {
        let (per_node, proc_util, sim_end) =
            summarize_nodes(self.procs.iter().map(|p| NodeMeasure {
                finished_at: p.finish_at.expect("all nodes finished"),
                measure_start: p.measure_start,
                busy: p.busy,
                misses: p.misses,
                miss_lat: &p.miss_lat,
            }));
        let report = SimReport {
            protocol,
            nodes: self.procs.len(),
            proc_cycle: self.proc_cycle,
            sim_end,
            proc_util,
            ring_util,
            probe_util,
            block_util,
            miss_latency: self.miss_lat,
            miss_histogram: self.miss_hist.clone(),
            upgrade_latency: self.upg_lat,
            class_latencies: self.class_lat.clone(),
            events: self.events,
            retries,
            per_node,
        };
        if ringsim_obs::global_metrics_enabled() {
            ringsim_obs::global_record(&report.metrics_summary());
        }
        report
    }
}
