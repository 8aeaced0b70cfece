//! Model-versus-simulation validation: run the timed simulators at 50 MIPS
//! and compare with the analytical models at the same point (the paper
//! reports agreement within 15% on latency and 5% on utilisations).

use serde::{Deserialize, Serialize};

use ringsim_analytic::{BusModel, ModelInput, RingModel};
use ringsim_bus::BusConfig;
use ringsim_core::{RunOptions, SimKind, SimSpec};
use ringsim_proto::ProtocolKind;
use ringsim_ring::RingConfig;
use ringsim_sweep::{Artifact, Experiment, SweepCtx, SweepPoint};
use ringsim_trace::{Benchmark, Workload};
use ringsim_types::Time;

/// The timed simulations are the slowest part of the suite; cap their
/// reference budget so validation stays tractable at the default budget.
const MAX_REFS: u64 = 40_000;

#[derive(Debug, Serialize, Deserialize)]
struct Row {
    config: String,
    sim_proc_util: f64,
    model_proc_util: f64,
    sim_net_util: f64,
    model_net_util: f64,
    sim_miss_ns: f64,
    model_miss_ns: f64,
}

impl Row {
    fn util_err(&self) -> f64 {
        (self.sim_proc_util - self.model_proc_util).abs()
    }
    fn lat_err(&self) -> f64 {
        if self.sim_miss_ns <= 0.0 {
            0.0
        } else {
            (self.sim_miss_ns - self.model_miss_ns).abs() / self.sim_miss_ns
        }
    }
}

/// One validation point: a benchmark configuration under one network.
#[derive(Debug, Clone, Copy)]
enum Variant {
    Ring(ProtocolKind),
    Bus,
}

impl Variant {
    fn label(self) -> &'static str {
        match self {
            Variant::Ring(p) => p.name(),
            Variant::Bus => "bus100",
        }
    }
}

fn run_point(bench: Benchmark, procs: usize, variant: Variant, refs: u64) -> Row {
    let proc = Time::from_ns(20);
    let wl_spec = bench.spec(procs).expect("spec").with_refs(refs);
    let instr_per_data = wl_spec.instr_per_data;
    let workload = Workload::new(wl_spec).expect("workload");
    let (kind, config) = match variant {
        Variant::Ring(p) => {
            (SimKind::Ring500, format!("{}.{} ring {}", bench.name(), procs, p.name()))
        }
        Variant::Bus => (SimKind::Bus100, format!("{}.{} bus 100MHz", bench.name(), procs)),
    };
    let spec = match variant {
        Variant::Ring(p) => SimSpec::new(workload).with_protocol(p).with_proc_cycle(proc),
        Variant::Bus => SimSpec::new(workload).with_proc_cycle(proc),
    };
    let mut system = kind.build(&spec).expect("system");
    let sim = system.run(&RunOptions::default()).report;
    // Feed the *simulator's own* event mix to the model, mirroring the
    // paper's methodology (simulation-derived parameters).
    let sim_input = ModelInput::from_report(&sim, instr_per_data);
    let model = match variant {
        Variant::Ring(protocol) => {
            RingModel::new(RingConfig::standard_500mhz(procs), protocol).evaluate(&sim_input, proc)
        }
        Variant::Bus => BusModel::new(BusConfig::bus_100mhz(procs)).evaluate(&sim_input, proc),
    };
    Row {
        config,
        sim_proc_util: sim.proc_util,
        model_proc_util: model.proc_util,
        sim_net_util: sim.ring_util,
        model_net_util: model.net_util,
        sim_miss_ns: sim.miss_latency_ns(),
        model_miss_ns: model.miss_latency_ns,
    }
}

/// Runs the validation suite.
pub struct Validate;

impl Experiment for Validate {
    fn name(&self) -> &'static str {
        "validate"
    }

    fn description(&self) -> &'static str {
        "timed simulation vs analytical model at 50 MIPS (paper: within 5%/15%)"
    }

    fn run(&self, ctx: &SweepCtx) -> Vec<Artifact> {
        let cases = [
            (Benchmark::Mp3d, 8),
            (Benchmark::Mp3d, 16),
            (Benchmark::Water, 8),
            (Benchmark::Cholesky, 16),
        ];
        let mut points = Vec::new();
        for (bench, procs) in cases {
            points.push((bench, procs, Variant::Ring(ProtocolKind::Snooping)));
            points.push((bench, procs, Variant::Ring(ProtocolKind::Directory)));
            points.push((bench, procs, Variant::Bus));
        }
        let rows = ctx.map(
            &points,
            |&(bench, procs, variant)| {
                SweepPoint::new().bench(bench.name()).procs(procs).protocol(variant.label())
            },
            |pctx, &(bench, procs, variant)| {
                run_point(bench, procs, variant, pctx.refs_per_proc.min(MAX_REFS))
            },
        );
        println!("Validation: timed simulation vs analytical model at 50 MIPS (20 ns processors)");
        println!("{:-<100}", "");
        println!(
            "{:<28} | {:>8} {:>8} | {:>8} {:>8} | {:>9} {:>9} | err(U) err(L)",
            "configuration", "simU%", "modU%", "simNet%", "modNet%", "simLat", "modLat"
        );
        let mut worst_u = 0.0f64;
        let mut worst_l = 0.0f64;
        for r in &rows {
            println!(
                "{:<28} | {:>8.1} {:>8.1} | {:>8.1} {:>8.1} | {:>9.0} {:>9.0} | {:>5.1}pp {:>5.1}%",
                r.config,
                100.0 * r.sim_proc_util,
                100.0 * r.model_proc_util,
                100.0 * r.sim_net_util,
                100.0 * r.model_net_util,
                r.sim_miss_ns,
                r.model_miss_ns,
                100.0 * r.util_err(),
                100.0 * r.lat_err(),
            );
            worst_u = worst_u.max(r.util_err());
            worst_l = worst_l.max(r.lat_err());
        }
        println!(
            "worst-case disagreement: {:.1} percentage points (utilisation), {:.1}% (latency); paper reports 5% / 15%",
            100.0 * worst_u,
            100.0 * worst_l
        );
        ctx.write_json("validate", &rows);
        ctx.artifacts()
    }
}
