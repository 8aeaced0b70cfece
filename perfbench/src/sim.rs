//! The `ring64` and `bus64` workloads: 64-processor timed simulator runs on
//! the paper's `weather` and `simple` specs.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use ringsim_bench::perf::{report_digest, Scenario};
use ringsim_core::{RunOptions, SimKind, SimReport, SimSpec};
use ringsim_proto::ProtocolKind;
use ringsim_trace::{Benchmark, Workload, WorkloadSpec};

use crate::stats::{cpu_secs, median, peak_rss_mb};
use crate::tracer::Tracer;
use crate::{calib, layers, Args, Outcome};

/// Processors in every configuration.
pub const PROCS: usize = 64;

/// Measured data references per processor (warm-up adds a quarter, at
/// least 1000). Small enough that one `ring500` run takes a fraction of a
/// second, so a run of the benchmark holds several rounds.
pub const REFS_PER_PROC: u64 = 2_500;

/// Rounds timed even when they overrun `--seconds`.
const MIN_ROUNDS: usize = 3;

/// The two 64-processor paper specs both workloads run.
pub const BENCHES: [Benchmark; 2] = [Benchmark::Weather, Benchmark::Simple];

/// One simulated configuration.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    bench: Benchmark,
    kind: SimKind,
    protocol: ProtocolKind,
}

impl Config {
    /// `<bench>.<kind>.<protocol>`, the key of its digest and samples.
    fn label(self) -> String {
        format!("{}.{}", self.bench.name(), self.kind_protocol())
    }

    /// `<kind>.<protocol>`, as in `core.run_s.<kind>.<protocol>`. The bus
    /// and SCI backends carry their protocol in the kind.
    fn kind_protocol(self) -> String {
        let protocol = match self.kind {
            SimKind::Ring500 => self.protocol.name(),
            SimKind::Bus50 => "msi",
            _ => "sci",
        };
        format!("{}.{protocol}", self.kind.name())
    }
}

/// The configurations of `workload` (`ring64` or `bus64`).
pub fn configs(workload: &str) -> Vec<Config> {
    let mut out = Vec::new();
    for bench in BENCHES {
        if workload == "ring64" {
            for protocol in [ProtocolKind::Snooping, ProtocolKind::Directory] {
                out.push(Config { bench, kind: SimKind::Ring500, protocol });
            }
        } else {
            for kind in [SimKind::Bus50, SimKind::Sci500] {
                out.push(Config { bench, kind, protocol: ProtocolKind::Snooping });
            }
        }
    }
    out
}

/// The generated input of `bench` for the benchmark seed `seed`.
///
/// # Panics
///
/// Panics if the paper does not define `bench` at 64 processors.
pub fn spec(bench: Benchmark, seed: u64) -> WorkloadSpec {
    let mixed = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ (bench as u64 + 1);
    bench.spec(PROCS).expect("64-processor paper spec").with_refs(REFS_PER_PROC).with_seed(mixed)
}

/// Host times of one configuration built and run.
struct Times {
    /// `Workload::new` plus `SimKind::build`: the set-up the benchmark times.
    setup: Duration,
    /// `SimKind::build` alone.
    build: Duration,
    run: Duration,
}

/// Builds one simulator and runs it.
fn run_once(cfg: Config, spec: &WorkloadSpec, tracer: &Tracer) -> (SimReport, Times) {
    let label = cfg.label();
    let start = Instant::now();
    let workload = tracer.span("Workload::new", "trace", 0, &label, || Workload::new(spec.clone()));
    let workload = workload.expect("paper spec validates");
    let sim_spec = SimSpec::new(workload).with_protocol(cfg.protocol);
    let built = Instant::now();
    let mut sim = tracer
        .span("SimKind::build", "core", 0, &label, || cfg.kind.build(&sim_spec))
        .expect("64-processor configuration builds");
    let (build, setup) = (built.elapsed(), start.elapsed());
    let start = Instant::now();
    let outcome = tracer.span("Simulator::run", "core", 0, &label, || sim.run(&RunOptions::new()));
    (outcome.report, Times { setup, build, run: start.elapsed() })
}

/// Normalised host-time samples (see [`crate::calib`]) of a timed phase.
#[derive(Default)]
struct Phase {
    /// Set-up of each round: every configuration's workload and build.
    setups: Vec<f64>,
    builds: Vec<f64>,
    runs: BTreeMap<String, Vec<f64>>,
    /// Raw (unnormalised) run times, for the report.
    raw_runs: Vec<f64>,
    /// Wall and CPU time of each round (set-up, run and digest).
    round_walls: Vec<f64>,
    round_cpus: Vec<f64>,
    count: usize,
}

impl Phase {
    /// Mean over configurations of each one's median run time.
    fn run_s(&self) -> f64 {
        let per: Vec<f64> = self.runs.values().map(|v| median(v)).collect();
        per.iter().sum::<f64>() / per.len().max(1) as f64
    }
}

/// Times rounds (every configuration once) until `seconds` have passed,
/// checking each report against the warm-up digest of its configuration.
fn timed(
    configs: &[Config],
    specs: &BTreeMap<&str, WorkloadSpec>,
    seconds: f64,
    reference: &BTreeMap<String, String>,
    tracer: &Tracer,
    out: &mut Outcome,
) -> Phase {
    let mut phase = Phase::default();
    let start = Instant::now();
    let mut rounds = 0;
    while rounds < MIN_ROUNDS || start.elapsed().as_secs_f64() < seconds {
        let (mut setup, mut wall, mut cpu) = (0.0, 0.0, 0.0);
        for &cfg in configs {
            let f = calib::factor(1);
            let (started, cpu0) = (Instant::now(), cpu_secs(None));
            let (report, t) = run_once(cfg, &specs[cfg.bench.name()], tracer);
            setup += t.setup.as_secs_f64() * f;
            phase.builds.push(t.build.as_secs_f64() * f);
            phase.runs.entry(cfg.label()).or_default().push(t.run.as_secs_f64() * f);
            phase.raw_runs.push(t.run.as_secs_f64());
            phase.count += 1;
            let label = cfg.label();
            let digest = report_digest(&report);
            out.check(digest == reference[&label], || {
                format!(
                    "{label}: report digest {digest} differs from warm-up {}",
                    reference[&label]
                )
            });
            wall += started.elapsed().as_secs_f64() * f;
            cpu += (cpu_secs(None) - cpu0) * f;
        }
        phase.setups.push(setup);
        phase.round_walls.push(wall);
        phase.round_cpus.push(cpu);
        rounds += 1;
    }
    phase
}

/// Runs `ring64` or `bus64`.
pub fn run(args: &Args, tracer: &Tracer) -> Outcome {
    let mut out = Outcome::default();
    let configs = configs(&args.workload);
    let specs: BTreeMap<&str, WorkloadSpec> =
        BENCHES.iter().map(|&b| (b.name(), spec(b, args.seed))).collect();

    // Untimed warm-up; its reports are the reference digests and the
    // source of the simulated (host-independent) values. Peak RSS is taken
    // after it, over a fixed amount of work.
    let off = Tracer::new(false);
    let mut reference = BTreeMap::new();
    let mut reports = Vec::new();
    for &cfg in &configs {
        let (report, _) = run_once(cfg, &specs[cfg.bench.name()], &off);
        let (label, digest) = (cfg.label(), report_digest(&report));
        out.digests.push((format!("{}/{label}", args.workload), digest.clone()));
        reference.insert(label, digest);
        reports.push((cfg, report));
    }

    let peak_rss = peak_rss_mb(None);

    if !tracer.on() {
        let phase = timed(&configs, &specs, args.seconds, &reference, &off, &mut out);
        out.set("setup_s", median(&phase.setups));
        out.set("run_s", phase.run_s());
        let per_round = configs.len() as f64;
        out.set("cpu_s", median(&phase.round_cpus) / per_round);
        out.set("runs_per_s", per_round / median(&phase.round_walls));
        out.set("peak_rss_mb", peak_rss);
        out.notes.push(format!(
            "{} runs; raw median run {:.6} s before normalisation",
            phase.count,
            median(&phase.raw_runs)
        ));
        return out;
    }

    // Traced run: half the time untraced, half traced, for the overhead.
    let plain = timed(&configs, &specs, args.seconds / 2.0, &reference, &off, &mut out);
    let traced = timed(&configs, &specs, args.seconds / 2.0, &reference, tracer, &mut out);
    out.set("obs.trace_overhead", traced.run_s() / plain.run_s() - 1.0);
    let selfs = tracer.self_secs();
    for (layer, name) in [("trace", "trace.self_s"), ("core", "core.self_s")] {
        out.set(name, selfs.get(layer).copied().unwrap_or(0.0) / traced.count as f64);
    }
    out.set("core.build_s", median(&traced.builds));

    let mut by_kind: BTreeMap<&str, (f64, u64)> = BTreeMap::new();
    let mut by_kind_protocol: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let (mut refs, mut run_secs) = (0u64, 0.0);
    let (mut sim_cycles, mut misses, mut retries) = (0u64, 0u64, 0u64);
    let (mut proc_util, mut ring_util) = (0.0, 0.0);
    for (cfg, report) in &reports {
        let secs = median(&traced.runs[&cfg.label()]);
        let clock =
            Scenario { kind: cfg.kind, procs: PROCS, refs_per_proc: REFS_PER_PROC, topo: None }
                .clock_period();
        let cycles = report.sim_end.cycles(clock);
        let kind = by_kind.entry(cfg.kind.name()).or_default();
        kind.0 += secs;
        kind.1 += cycles;
        by_kind_protocol.entry(cfg.kind_protocol()).or_default().push(secs);
        refs += report.events.data_refs();
        run_secs += secs;
        sim_cycles += cycles;
        misses += report.events.misses();
        retries += report.retries;
        proc_util += report.proc_util / reports.len() as f64;
        ring_util += report.ring_util / reports.len() as f64;
    }
    for (kind_protocol, secs) in by_kind_protocol {
        let mean = secs.iter().sum::<f64>() / secs.len() as f64;
        out.set(&format!("core.run_s.{kind_protocol}"), mean);
    }
    for (kind, (secs, cycles)) in by_kind {
        out.set(&format!("core.host_ns_per_cycle.{kind}"), secs * 1e9 / cycles as f64);
    }
    out.set("core.refs_per_s", refs as f64 / run_secs);
    out.set("core.sim_cycles", sim_cycles as f64);
    out.set("core.misses", misses as f64);
    out.set("core.retry_ratio", retries as f64 / misses.max(1) as f64);
    out.set("core.proc_util", proc_util);
    out.set("core.ring_util", ring_util);

    layers::trace_and_cache(&specs["weather"], tracer, &mut out);
    if args.workload == "ring64" {
        layers::ring_advance(tracer, &mut out);
    } else {
        layers::bus_acquire(tracer, &mut out);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn changing_the_seed_changes_the_generated_inputs() {
        let first = |seed| {
            let mut w = Workload::new(spec(Benchmark::Weather, seed)).unwrap();
            w.round_robin(50).collect::<Vec<_>>()
        };
        assert_eq!(first(1), first(1));
        assert_ne!(first(1), first(2));
    }

    #[test]
    fn workloads_split_ring_from_bypass_backends() {
        assert!(configs("ring64").iter().all(|c| c.kind == SimKind::Ring500));
        assert!(configs("bus64").iter().all(|c| c.kind != SimKind::Ring500));
        let names: Vec<String> = configs("bus64").iter().map(|c| c.kind_protocol()).collect();
        for n in names
            .iter()
            .chain(&configs("ring64").iter().map(|c| c.kind_protocol()).collect::<Vec<_>>())
        {
            assert!(crate::metrics::find(&format!("core.run_s.{n}")).is_some(), "{n}");
        }
    }
}
