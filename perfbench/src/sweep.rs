//! The `sweep` workload: every experiment of the registry through
//! `ringsim_sweep::run_experiment`, with the per-point cache off and
//! `jobs = nproc`, into a fresh out dir per regeneration. Its traced run
//! also measures the serve layer, which runs the same engine behind HTTP.

use std::collections::BTreeMap;
use std::fs;
use std::path::Path;
use std::time::Instant;

use ringsim_bench::experiments::registry;
use ringsim_obs::json::{self, JsonValue};
use ringsim_sweep::{run_experiment, SweepConfig};

use crate::stats::{cpu_secs, fnv1a, median, nproc, peak_rss_mb};
use crate::tracer::Tracer;
use crate::{calib, layers, serve, sim, Args, Outcome};

/// Per-processor reference budget at the default seed. Point seeds are
/// fixed by `SweepPoint::seed`, so the benchmark seed reaches the sweep
/// only by shifting this budget (see [`refs`]).
const REFS_BASE: u64 = 2_000;

/// Regenerations timed even when they overrun `--seconds`.
const MIN_REGENS: usize = 3;

/// The reference budget of seed `seed`.
pub fn refs(seed: u64) -> u64 {
    REFS_BASE + 5 * (seed % 8)
}

/// One regeneration of the whole registry; times are normalised (see
/// [`calib`]).
struct Regen {
    wall: f64,
    raw_wall: f64,
    cpu: f64,
    exp_wall: BTreeMap<&'static str, f64>,
    point_sum: f64,
    critical_point: f64,
    points: usize,
    /// `(sweep/<file>, digest)` of every artifact.
    digests: Vec<(String, String)>,
}

/// Each experiment is timed after its own calibration on `nproc` threads.
fn regenerate(dir: &Path, refs: u64, tracer: &Tracer) -> Regen {
    let mut regen = Regen {
        wall: 0.0,
        raw_wall: 0.0,
        cpu: 0.0,
        exp_wall: BTreeMap::new(),
        point_sum: 0.0,
        critical_point: 0.0,
        points: 0,
        digests: Vec::new(),
    };
    let cfg = SweepConfig::new(refs).jobs(nproc()).cache(false).out_dir(dir);
    let mut reports = Vec::new();
    let mut raw_cpu = 0.0;
    for &exp in registry() {
        let f = calib::factor(nproc());
        let (start, cpu0) = (Instant::now(), cpu_secs(None));
        let report =
            tracer.span("run_experiment", "sweep", 0, exp.name(), || run_experiment(exp, &cfg));
        let raw = start.elapsed().as_secs_f64();
        raw_cpu += cpu_secs(None) - cpu0;
        regen.raw_wall += raw;
        regen.wall += raw * f;
        reports.push((report, f));
    }
    // CPU ticks are too coarse to split by experiment: scale the total by
    // the regeneration's wall-weighted factor.
    regen.cpu = raw_cpu * regen.wall / regen.raw_wall;
    for (exp, (report, f)) in registry().iter().zip(&reports) {
        let f = *f;
        regen.exp_wall.insert(exp.name(), report.meta.total_wall_ms / 1e3 * f);
        for p in &report.meta.point_stats {
            regen.point_sum += p.wall_ms / 1e3 * f;
            regen.critical_point = regen.critical_point.max(p.wall_ms / 1e3 * f);
        }
        regen.points += report.meta.points;
        for a in &report.artifacts {
            let name = a.path.file_name().map_or_else(String::new, |n| n.to_string_lossy().into());
            let bytes = fs::read(&a.path).unwrap_or_default();
            regen.digests.push((format!("sweep/{name}"), format!("{:016x}", fnv1a(&bytes))));
        }
    }
    regen.digests.sort();
    regen
}

/// Regenerations timed until `seconds` have passed, each checked against
/// the warm-up's artifact digests.
fn timed(
    tmp: &Path,
    refs: u64,
    seconds: f64,
    reference: &[(String, String)],
    tracer: &Tracer,
    out: &mut Outcome,
) -> Vec<Regen> {
    let mut regens = Vec::new();
    let start = Instant::now();
    while regens.len() < MIN_REGENS || start.elapsed().as_secs_f64() < seconds {
        let dir = tmp.join(format!("sweep-{}-{}", tracer.on(), regens.len()));
        let regen = regenerate(&dir, refs, tracer);
        let _ = fs::remove_dir_all(&dir);
        out.check(regen.digests == reference, || {
            format!("sweep artifacts differ from the warm-up regeneration at refs {refs}")
        });
        regens.push(regen);
    }
    regens
}

/// Largest relative error of the characterized total and shared miss rates
/// against the paper's Table 2, from a `table2.json` artifact.
fn table2_err(doc: &JsonValue) -> Option<f64> {
    let mut worst: f64 = 0.0;
    for row in doc.as_array()? {
        let paper = row.get("paper")?;
        for (ours, theirs) in
            [("measured_total_mr", "total_miss_rate"), ("measured_shared_mr", "shared_miss_rate")]
        {
            let p = paper.get(theirs)?.as_f64()?;
            worst = worst.max((row.get(ours)?.as_f64()? - p).abs() / p);
        }
    }
    Some(worst)
}

/// Largest |sim − model| processor utilisation, from `validate.json`.
fn model_err(doc: &JsonValue) -> Option<f64> {
    let mut worst: f64 = 0.0;
    for row in doc.as_array()? {
        let sim = row.get("sim_proc_util")?.as_f64()?;
        worst = worst.max((sim - row.get("model_proc_util")?.as_f64()?).abs());
    }
    Some(worst)
}

fn artifact_json(dir: &Path, file: &str) -> Option<JsonValue> {
    json::parse(&fs::read_to_string(dir.join(file)).ok()?).ok()
}

/// Runs the `sweep` workload.
pub fn run(args: &Args, tmp: &Path, tracer: &Tracer) -> Outcome {
    let mut out = Outcome::default();
    let refs = refs(args.seed);
    let off = Tracer::new(false);

    // The warm-up is the workload's set-up: the first, cold regeneration
    // pays every first-use cost (thread spawns, lazy initialisation, first
    // page faults), which is where work moved out of the timed loop would
    // show. Configuring a regeneration alone takes tens of microseconds,
    // mostly system calls, and read 30 µs in some processes and 50 µs in
    // others, too unsteady to gate. The warm-up's
    // artifacts are the reference digests and the source of the accuracy
    // figures. Peak RSS is taken after it, over a fixed amount of work.
    let dir = tmp.join("sweep-warmup");
    let warm = regenerate(&dir, refs, &off);
    let accuracy = (
        artifact_json(&dir, "table2.json").as_ref().and_then(table2_err),
        artifact_json(&dir, "validate.json").as_ref().and_then(model_err),
    );
    let _ = fs::remove_dir_all(&dir);
    out.digests.clone_from(&warm.digests);
    let peak_rss = peak_rss_mb(None);
    let walls = |rs: &[Regen]| median(&rs.iter().map(|r| r.wall).collect::<Vec<_>>());

    if !tracer.on() {
        let regens = timed(tmp, refs, args.seconds, &warm.digests, &off, &mut out);
        out.set("setup_s", warm.wall);
        out.set("run_s", walls(&regens));
        out.set("cpu_s", median(&regens.iter().map(|r| r.cpu).collect::<Vec<_>>()));
        out.set("runs_per_s", 1.0 / walls(&regens));
        out.set("peak_rss_mb", peak_rss);
        out.notes.push(format!(
            "{} regenerations at refs {refs}; raw median wall {:.4} s before normalisation",
            regens.len(),
            median(&regens.iter().map(|r| r.raw_wall).collect::<Vec<_>>())
        ));
        return out;
    }

    // A third each: untraced and traced regenerations, and served sessions.
    let third = args.seconds / 3.0;
    let plain = timed(tmp, refs, third, &warm.digests, &off, &mut out);
    let traced = timed(tmp, refs, third, &warm.digests, tracer, &mut out);
    out.set("obs.trace_overhead", walls(&traced) / walls(&plain) - 1.0);
    let self_s = tracer.self_secs().get("sweep").copied().unwrap_or(0.0);
    out.set("sweep.self_s", self_s / traced.len() as f64);
    for exp in registry() {
        let walls: Vec<f64> = traced.iter().map(|r| r.exp_wall[exp.name()]).collect();
        out.set(&format!("sweep.exp_wall_s.{}", exp.name()), median(&walls));
    }
    let of = |f: &dyn Fn(&Regen) -> f64| median(&traced.iter().map(f).collect::<Vec<_>>());
    out.set("sweep.point_sum_s", of(&|r| r.point_sum));
    out.set("sweep.critical_point_s", of(&|r| r.critical_point));
    let jobs = nproc() as f64;
    out.set("sweep.idle_frac", of(&|r| 1.0 - r.point_sum / (r.wall * jobs)));
    out.set("sweep.points", warm.points as f64);
    match accuracy {
        (Some(t2), Some(model)) => {
            out.set("sweep.table2_err", t2);
            out.set("sweep.model_err", model);
        }
        _ => out.fail("table2.json or validate.json missing or malformed".to_owned()),
    }

    layers::trace_and_cache(
        &sim::spec(ringsim_trace::Benchmark::Weather, args.seed),
        tracer,
        &mut out,
    );
    layers::ring_advance(tracer, &mut out);
    layers::bus_acquire(tracer, &mut out);
    layers::analytic(args.seed, tracer, &mut out);
    serve::layer(args, tmp, third, tracer, &mut out);
    out
}

#[cfg(test)]
mod tests {
    #[test]
    fn changing_the_seed_changes_the_reference_budget() {
        assert_eq!(super::refs(1), super::refs(1));
        assert_ne!(super::refs(1), super::refs(2));
    }
}
