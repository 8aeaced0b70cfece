//! Scenario plumbing shared by the golden-digest tests and the repository
//! benchmark (`perfbench/`).
//!
//! A [`Scenario`] is one full simulator run: build from a [`SimSpec`] on
//! the deterministic demo workload at a fixed per-processor reference
//! budget, then run to completion through the [`Simulator`] trait.
//! [`report_digest`] condenses the run's report into the digest the
//! byte-identity tests pin.

use std::time::Instant;

use ringsim_core::{HierTopology, RunOptions, SimKind, SimReport, SimSpec, Simulator};
use ringsim_trace::{Workload, WorkloadSpec};
use ringsim_types::Time;

/// One configuration: a backend at a processor count, optionally pinned to
/// an explicit hierarchy topology.
#[derive(Debug, Clone, Copy)]
pub struct Scenario {
    /// Backend under measurement.
    pub kind: SimKind,
    /// Processor count.
    pub procs: usize,
    /// Per-processor data-reference budget.
    pub refs_per_proc: u64,
    /// Topology override for the hierarchical backends (`None` keeps the
    /// backend's default depth; meaningless for non-hier kinds).
    pub topo: Option<HierTopology>,
}

impl Scenario {
    /// Stable scenario name, e.g. `ring500-64p` — or `hier-flat-64p` when a
    /// topology override is pinned.
    #[must_use]
    pub fn name(&self) -> String {
        match self.topo {
            Some(t) => format!("{}-{}-{}p", self.kind.name(), t.name(), self.procs),
            None => format!("{}-{}p", self.kind.name(), self.procs),
        }
    }

    /// The interconnect clock period the backend's slot pipeline (or bus
    /// arbiter) steps at — the denominator for cycles/sec.
    #[must_use]
    pub fn clock_period(&self) -> Time {
        match self.kind {
            SimKind::Ring500
            | SimKind::Sci500
            | SimKind::Hier
            | SimKind::Hier3
            | SimKind::HierDeflect => Time::from_ns(2),
            SimKind::Ring250 | SimKind::Sci250 => Time::from_ns(4),
            SimKind::Bus50 | SimKind::Bus50Mesi | SimKind::Bus50Dragon => Time::from_ns(20),
            SimKind::Bus100 => Time::from_ns(10),
        }
    }

    /// Builds the simulator for this scenario.
    ///
    /// # Panics
    ///
    /// Panics when the scenario is not buildable (e.g. a processor count
    /// the hierarchical backends cannot split into rings).
    #[must_use]
    pub fn build(&self) -> Box<dyn Simulator> {
        let workload = Workload::new(WorkloadSpec::demo(self.procs).with_refs(self.refs_per_proc))
            .expect("demo workload");
        let mut spec = SimSpec::new(workload);
        if let Some(t) = self.topo {
            spec = spec.with_topology(t);
        }
        self.kind.build(&spec).unwrap_or_else(|e| panic!("{}: {e}", self.name()))
    }

    /// Builds and runs the scenario once, returning the report and the
    /// wall-clock nanoseconds the run (not the build) took.
    #[must_use]
    pub fn run_once(&self) -> (SimReport, u64) {
        let mut sim = self.build();
        let start = Instant::now();
        let outcome = sim.run(&RunOptions::default());
        let elapsed = start.elapsed();
        (outcome.report, u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX))
    }
}

/// Canonical digest of a report: FNV-1a over its JSON serialisation.
/// Two runs produce the same digest exactly when their reports are
/// byte-identical after serialisation — the contract the committed
/// golden digests (and the optimization work behind them) are gated on.
///
/// # Panics
///
/// Panics when the report fails to serialise (a serde stand-in bug).
#[must_use]
pub fn report_digest(report: &SimReport) -> String {
    let json = serde_json::to_string(report).expect("report serialises");
    format!("{:016x}", fnv1a(json.as_bytes()))
}

/// 64-bit FNV-1a over `bytes`.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}
