//! The benchmark's workloads and metrics, each with the reason it exists.
//!
//! `BENCHMARK.json` at the repository root declares the same names, units
//! and directions; a test keeps the two in step. Every workload prints
//! every end-to-end metric; a traced run prints every per-layer metric,
//! with 0 for a layer the workload does not call.
//!
//! The serve layer is measured in the `sweep` workload's traced run and is
//! no workload of its own, so its metrics move no gated metric (see
//! [`crate::serve`]).

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The spelling `BENCHMARK.json` uses.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One named metric.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// Metric name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// For a per-layer metric: the end-to-end metric it should move, or
    /// `""` for a serve-layer metric, which moves none.
    pub moves: &'static str,
    /// For a per-layer metric: the workloads on which it moves `moves`, or
    /// for a serve-layer metric the workload whose traced run measures it.
    pub on: &'static [&'static str],
}

/// Workload names with the reason each exists.
pub const WORKLOADS: [(&str, &str); 3] = [
    (
        "ring64",
        "ring500 at 64 processors on weather and simple, snooping and directory: the paper's \
         backend at its largest size, where ring slot handling dominates host time",
    ),
    (
        "bus64",
        "the same inputs on bus50 and sci500, which never touch SlotRing: the bypass workload, \
         where a ring-only optimisation must show no change",
    ),
    (
        "sweep",
        "the whole experiment registry with the point cache off: characterizations, analytic \
         fixed points, timed runs and scheduling across the barriers between experiments",
    ),
];

const fn e2e(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric { name, unit, better, moves: "", on: &[] }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
    on: &'static [&'static str],
) -> Metric {
    Metric { name, unit, better, moves, on }
}

use Better::{Higher, Lower};

const SIMS: &[&str] = &["ring64", "bus64"];
const RING: &[&str] = &["ring64"];
const BUS: &[&str] = &["bus64"];
const SWEEP: &[&str] = &["sweep"];
const ALL: &[&str] = &["ring64", "bus64", "sweep"];

/// End-to-end metrics, printed by every untraced run. A "run" is one
/// 64-processor `Simulator::run` (`ring64`, `bus64`) or one regeneration of
/// the whole registry (`sweep`).
pub const END_TO_END: &[Metric] = &[
    e2e("setup_s", "s", Lower),
    e2e("run_s", "s", Lower),
    e2e("cpu_s", "s", Lower),
    e2e("runs_per_s", "1/s", Higher),
    e2e("peak_rss_mb", "MiB", Lower),
];

/// Per-layer metrics, printed by every traced run.
pub const PER_LAYER: &[Metric] = &[
    layer("trace.gen_ns_per_ref", "ns", Lower, "run_s", SIMS),
    layer("trace.interp_ns_per_ref", "ns", Lower, "run_s", SWEEP),
    layer("trace.self_s", "s", Lower, "setup_s", SIMS),
    layer("cache.classify_ns", "ns", Lower, "run_s", SIMS),
    layer("cache.miss_ratio", "ratio", Lower, "run_s", SIMS),
    layer("ring.advance_ns", "ns", Lower, "run_s", RING),
    layer("bus.acquire_ns", "ns", Lower, "run_s", BUS),
    layer("core.build_s", "s", Lower, "setup_s", SIMS),
    layer("core.run_s.ring500.snooping", "s", Lower, "run_s", RING),
    layer("core.run_s.ring500.directory", "s", Lower, "run_s", RING),
    layer("core.run_s.bus50.msi", "s", Lower, "run_s", BUS),
    layer("core.run_s.sci500.sci", "s", Lower, "run_s", BUS),
    layer("core.host_ns_per_cycle.ring500", "ns", Lower, "run_s", RING),
    layer("core.host_ns_per_cycle.bus50", "ns", Lower, "run_s", BUS),
    layer("core.host_ns_per_cycle.sci500", "ns", Lower, "run_s", BUS),
    layer("core.refs_per_s", "1/s", Higher, "runs_per_s", SIMS),
    layer("core.sim_cycles", "count", Lower, "run_s", SIMS),
    layer("core.misses", "count", Lower, "run_s", SIMS),
    layer("core.retry_ratio", "ratio", Lower, "run_s", RING),
    layer("core.proc_util", "ratio", Higher, "run_s", SIMS),
    layer("core.ring_util", "ratio", Lower, "run_s", SIMS),
    layer("core.self_s", "s", Lower, "run_s", SIMS),
    layer("analytic.evaluate_us", "us", Lower, "run_s", SWEEP),
    layer("analytic.iterations", "count", Lower, "run_s", SWEEP),
    layer("analytic.converged_ratio", "ratio", Higher, "run_s", SWEEP),
    layer("sweep.exp_wall_s.table1", "s", Lower, "run_s", SWEEP),
    layer("sweep.exp_wall_s.table2", "s", Lower, "run_s", SWEEP),
    layer("sweep.exp_wall_s.table3", "s", Lower, "run_s", SWEEP),
    layer("sweep.exp_wall_s.table4", "s", Lower, "run_s", SWEEP),
    layer("sweep.exp_wall_s.fig3", "s", Lower, "run_s", SWEEP),
    layer("sweep.exp_wall_s.fig4", "s", Lower, "run_s", SWEEP),
    layer("sweep.exp_wall_s.fig5", "s", Lower, "run_s", SWEEP),
    layer("sweep.exp_wall_s.fig6", "s", Lower, "run_s", SWEEP),
    layer("sweep.exp_wall_s.validate", "s", Lower, "run_s", SWEEP),
    layer("sweep.exp_wall_s.ablation", "s", Lower, "run_s", SWEEP),
    layer("sweep.exp_wall_s.future_work", "s", Lower, "run_s", SWEEP),
    layer("sweep.exp_wall_s.block_sweep", "s", Lower, "run_s", SWEEP),
    layer("sweep.exp_wall_s.hierarchy", "s", Lower, "run_s", SWEEP),
    layer("sweep.exp_wall_s.wide_ring", "s", Lower, "run_s", SWEEP),
    layer("sweep.exp_wall_s.ring_access", "s", Lower, "run_s", SWEEP),
    layer("sweep.exp_wall_s.sci_vs_fullmap", "s", Lower, "run_s", SWEEP),
    layer("sweep.exp_wall_s.topology_sweep", "s", Lower, "run_s", SWEEP),
    layer("sweep.point_sum_s", "s", Lower, "cpu_s", SWEEP),
    layer("sweep.critical_point_s", "s", Lower, "run_s", SWEEP),
    layer("sweep.idle_frac", "ratio", Lower, "run_s", SWEEP),
    layer("sweep.points", "count", Lower, "run_s", SWEEP),
    layer("sweep.table2_err", "ratio", Lower, "run_s", SWEEP),
    layer("sweep.model_err", "ratio", Lower, "run_s", SWEEP),
    layer("sweep.self_s", "s", Lower, "run_s", SWEEP),
    layer("serve.submit_ms", "ms", Lower, "", SWEEP),
    layer("serve.queue_wait_s", "s", Lower, "", SWEEP),
    layer("serve.exec_s", "s", Lower, "", SWEEP),
    layer("serve.artifact_ms", "ms", Lower, "", SWEEP),
    layer("serve.dedupe_ratio", "ratio", Higher, "", SWEEP),
    layer("serve.done_p50_s", "s", Lower, "", SWEEP),
    layer("serve.done_tail_s", "s", Lower, "", SWEEP),
    layer("serve.done_tail_pct", "%", Higher, "", SWEEP),
    layer("serve.sessions", "count", Higher, "", SWEEP),
    layer("serve.runs_per_s", "1/s", Higher, "", SWEEP),
    layer("serve.self_s", "s", Lower, "", SWEEP),
    layer("obs.trace_overhead", "ratio", Lower, "run_s", ALL),
    layer("obs.spans", "count", Lower, "run_s", ALL),
];

/// Looks a declared metric up by name.
pub fn find(name: &str) -> Option<&'static Metric> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ringsim_obs::json::{self, JsonValue};

    fn well_formed(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn names_are_well_formed_and_unique() {
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.0).collect();
        names.extend(END_TO_END.iter().chain(PER_LAYER).map(|m| m.name));
        for n in &names {
            assert!(well_formed(n), "bad name `{n}`");
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "duplicate name");
    }

    #[test]
    fn benchmark_json_declares_every_metric_and_workload() {
        let doc = json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json");
        let declared = |key: &str| -> Vec<(String, String, String)> {
            doc.get(key)
                .and_then(JsonValue::as_array)
                .expect(key)
                .iter()
                .map(|m| {
                    let s = |k: &str| m.get(k).and_then(JsonValue::as_str).unwrap_or("").to_owned();
                    (s("name"), s("unit"), s("better"))
                })
                .collect()
        };
        for (key, ours) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let mut want: Vec<(String, String, String)> = ours
                .iter()
                .map(|m| (m.name.to_owned(), m.unit.to_owned(), m.better.as_str().to_owned()))
                .collect();
            let mut got = declared(key);
            want.sort();
            got.sort();
            assert_eq!(got, want, "{key} in BENCHMARK.json");
        }
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(JsonValue::as_array)
            .expect("workloads")
            .iter()
            .filter_map(|w| w.get("name").and_then(JsonValue::as_str))
            .collect();
        assert_eq!(workloads, WORKLOADS.map(|w| w.0));
    }

    #[test]
    fn every_layer_metric_names_what_it_moves_and_where() {
        let workloads = WORKLOADS.map(|w| w.0);
        for m in PER_LAYER {
            let serve_layer = m.name.starts_with("serve.") && m.moves.is_empty();
            assert!(
                serve_layer || END_TO_END.iter().any(|e| e.name == m.moves),
                "{}: moves `{}`",
                m.name,
                m.moves
            );
            assert!(!m.on.is_empty(), "{}: names no workload", m.name);
            for w in m.on {
                assert!(workloads.contains(w), "{}: unknown workload `{w}`", m.name);
            }
        }
        for m in END_TO_END {
            assert!(m.moves.is_empty() && m.on.is_empty());
        }
    }

    #[test]
    fn sweep_layer_covers_the_experiment_registry() {
        for exp in ringsim_bench::experiments::registry() {
            let name = format!("sweep.exp_wall_s.{}", exp.name());
            assert!(find(&name).is_some(), "{name} undeclared");
        }
        let declared = PER_LAYER.iter().filter(|m| m.name.starts_with("sweep.exp_wall_s.")).count();
        assert_eq!(declared, ringsim_bench::experiments::registry().len());
    }
}
