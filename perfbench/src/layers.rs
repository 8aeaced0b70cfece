//! Micro-benchmarks of single layers, each timed around calls into the
//! layer's public API on inputs generated from the benchmark seed.

use std::hint::black_box;
use std::time::{Duration, Instant};

use ringsim_analytic::{BusModel, ModelInput, RingModel};
use ringsim_bus::{Bus, BusConfig};
use ringsim_cache::{AccessClass, Cache, CacheConfig, LineState};
use ringsim_proto::ProtocolKind;
use ringsim_ring::{RingConfig, SlotRing};
use ringsim_trace::{characterize, Benchmark, RefInterpreter, Workload, WorkloadSpec, BLOCK_BYTES};
use ringsim_types::{AccessKind, MemRef, NodeId, Time};

use crate::stats::median;
use crate::tracer::Tracer;
use crate::{calib, mix, Outcome};

/// Minimum time one micro-benchmark repeats for.
const MIN_SECS: f64 = 0.3;

/// Minimum repetitions of one micro-benchmark.
const MIN_REPS: usize = 3;

/// Repeats `rep` (returning operations done and the time they took) for
/// at least [`MIN_SECS`] and returns the median nanoseconds per operation,
/// normalised (see [`calib`]).
fn repeat(mut rep: impl FnMut() -> (u64, Duration)) -> f64 {
    let f = calib::factor(1);
    let mut per_op = Vec::new();
    let start = Instant::now();
    while per_op.len() < MIN_REPS || start.elapsed().as_secs_f64() < MIN_SECS {
        let (ops, took) = rep();
        per_op.push(took.as_nanos() as f64 / ops.max(1) as f64 * f);
    }
    median(&per_op)
}

/// `trace.*` and `cache.*`: the generator, the reference interpreter and
/// one node's cache over the references of `spec`.
pub fn trace_and_cache(spec: &WorkloadSpec, tracer: &Tracer, out: &mut Outcome) {
    let per_node = spec.warmup_refs_per_proc + spec.data_refs_per_proc;
    let workload = Workload::new(spec.clone()).expect("paper spec validates");
    let gen = tracer.span("NodeStream::next_ref", "trace", 0, &spec.name, || {
        repeat(|| {
            let mut streams = workload.clone().into_streams();
            let start = Instant::now();
            for s in &mut streams {
                for _ in 0..per_node {
                    black_box(s.next_ref());
                }
            }
            (per_node * streams.len() as u64, start.elapsed())
        })
    });
    out.set("trace.gen_ns_per_ref", gen);

    let space = workload.space();
    let refs: Vec<MemRef> = workload.clone().round_robin(per_node).collect();
    let interp = tracer.span("RefInterpreter::process", "trace", 0, &spec.name, || {
        repeat(|| {
            let mut interp = RefInterpreter::new(spec.procs, space).expect("at most 64 nodes");
            let start = Instant::now();
            for &r in &refs {
                interp.process(r);
            }
            black_box(interp.events());
            (refs.len() as u64, start.elapsed())
        })
    });
    out.set("trace.interp_ns_per_ref", interp);

    let node0: Vec<MemRef> = refs.iter().filter(|r| r.node == NodeId::new(0)).copied().collect();
    let mut misses = 0;
    let classify = tracer.span("Cache::classify", "cache", 0, &spec.name, || {
        repeat(|| {
            let mut cache = Cache::new(CacheConfig::paper_default()).expect("paper geometry");
            let start = Instant::now();
            for r in &node0 {
                let block = r.addr.block(BLOCK_BYTES);
                match cache.classify(block, r.kind) {
                    AccessClass::Hit => {}
                    AccessClass::Miss => {
                        let state =
                            if r.kind == AccessKind::Write { LineState::We } else { LineState::Rs };
                        black_box(cache.fill(block, state));
                    }
                    AccessClass::Upgrade => {
                        black_box(cache.promote(block));
                    }
                }
            }
            misses = cache.stats().misses;
            (node0.len() as u64, start.elapsed())
        })
    });
    out.set("cache.classify_ns", classify);
    out.set("cache.miss_ratio", misses as f64 / node0.len().max(1) as f64);
}

/// Ring cycles timed per repetition.
const RING_CYCLES: u64 = 20_000;

/// `ring.advance_ns`: one cycle of the 64-node 500 MHz slotted ring as the
/// simulator drives it: the slot arrival and contents at every node, then
/// `SlotRing::advance`.
pub fn ring_advance(tracer: &Tracer, out: &mut Outcome) {
    let mut ring: SlotRing<u64> =
        SlotRing::new(RingConfig::standard_500mhz(64)).expect("standard ring layout");
    let nodes: Vec<NodeId> = NodeId::all(64).collect();
    let ns = tracer.span("SlotRing::advance", "ring", 0, "", || {
        repeat(|| {
            let start = Instant::now();
            for _ in 0..RING_CYCLES {
                for &n in &nodes {
                    if let Some(slot) = ring.arrival(n) {
                        black_box(ring.peek(slot));
                    }
                }
                black_box(&mut ring).advance();
            }
            (RING_CYCLES, start.elapsed())
        })
    });
    out.set("ring.advance_ns", ns);
}

/// Bus grants timed per repetition.
const BUS_GRANTS: u64 = 200_000;

/// `bus.acquire_ns`: `Bus::acquire` on the 64-node 50 MHz bus.
pub fn bus_acquire(tracer: &Tracer, out: &mut Outcome) {
    let mut bus = Bus::new(BusConfig::bus_50mhz(64)).expect("standard bus");
    let ns = tracer.span("Bus::acquire", "bus", 0, "", || {
        repeat(|| {
            let start = Instant::now();
            for i in 0..BUS_GRANTS {
                black_box(black_box(&mut bus).acquire(Time::from_ns(i * 30), 2));
            }
            (BUS_GRANTS, start.elapsed())
        })
    });
    out.set("bus.acquire_ns", ns);
}

/// Per-processor references each Table 2 configuration is characterized
/// with for the analytic inputs.
const ANALYTIC_REFS: u64 = 2_000;

/// `analytic.*`: `RingModel` and `BusModel::evaluate` on the Table 2
/// inputs at processor cycles of 1 to 20 ns.
pub fn analytic(seed: u64, tracer: &Tracer, out: &mut Outcome) {
    let inputs: Vec<(usize, ModelInput)> = tracer.span("characterize", "trace", 0, "", || {
        Benchmark::paper_configs()
            .map(|(bench, procs)| {
                let spec = bench
                    .spec(procs)
                    .expect("paper configuration")
                    .with_refs(ANALYTIC_REFS)
                    .with_seed(mix(seed, procs as u64 * 8 + bench as u64));
                let ch = characterize(&spec).expect("paper spec validates");
                (procs, ModelInput::from_characteristics(&ch))
            })
            .collect()
    });
    let (mut evals, mut iterations, mut converged) = (0u64, 0u64, 0u64);
    let ns = tracer.span("Model::evaluate", "analytic", 0, "", || {
        repeat(|| {
            (evals, iterations, converged) = (0, 0, 0);
            let start = Instant::now();
            for (procs, input) in &inputs {
                let ring =
                    RingModel::new(RingConfig::standard_500mhz(*procs), ProtocolKind::Snooping);
                let bus = BusModel::new(BusConfig::bus_50mhz(*procs));
                for cycle in 1..=20 {
                    for o in [
                        ring.evaluate(input, Time::from_ns(cycle)),
                        bus.evaluate(input, Time::from_ns(cycle)),
                    ] {
                        evals += 1;
                        iterations += o.iterations as u64;
                        converged += u64::from(o.converged);
                    }
                }
            }
            (evals, start.elapsed())
        })
    });
    out.set("analytic.evaluate_us", ns / 1e3);
    out.set("analytic.iterations", iterations as f64 / evals as f64);
    out.set("analytic.converged_ratio", converged as f64 / evals as f64);
}
