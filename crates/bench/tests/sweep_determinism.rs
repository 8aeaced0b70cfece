//! Locks the sweep engine's determinism contract: every artifact an
//! experiment writes must be byte-identical no matter how many worker
//! threads computed its points, and no matter which experiments ran before
//! it under the same config (and so filled its memo). Wall-time metrics are
//! quarantined in the `<name>.meta.json` twins, which are the only files
//! allowed to differ.

use std::fs;
use std::path::{Path, PathBuf};

use ringsim_bench::experiments;
use ringsim_sweep::{run_experiment, SweepConfig};

const REFS: u64 = 2_000;

fn run_into(name: &str, jobs: usize, dir: &Path) -> Vec<PathBuf> {
    let exp = experiments::find(name).expect("known experiment");
    let report = run_experiment(exp, &SweepConfig::new(REFS).jobs(jobs).out_dir(dir));
    report.artifacts.into_iter().map(|a| a.path).collect()
}

/// One analytic experiment (table3), one simulation experiment whose points
/// share a characterisation (block_sweep), the one experiment that draws
/// per-point RNG streams from `PointCtx::seed` (ring_access) — the three
/// ways a schedule-dependent bug could leak into artifacts — plus the SCI
/// comparison, which runs two different timed backends per point, and the
/// topology sweep, which runs the hierarchical engine at every tree depth
/// (including the deflecting-bridge mode, whose deflection counts must
/// also be schedule-independent).
#[test]
fn artifacts_are_byte_identical_across_jobs() {
    for name in ["table3", "block_sweep", "ring_access", "sci_vs_fullmap", "topology_sweep"] {
        let base = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("det-{name}"));
        let serial = run_into(name, 1, &base.join("jobs1"));
        let parallel = run_into(name, 8, &base.join("jobs8"));
        assert!(!serial.is_empty(), "{name} wrote no artifacts");
        assert_eq!(serial.len(), parallel.len(), "{name} artifact count differs");
        for (a, b) in serial.iter().zip(&parallel) {
            assert_eq!(a.file_name(), b.file_name(), "{name} artifact order differs");
            let left = fs::read(a).unwrap();
            let right = fs::read(b).unwrap();
            assert_eq!(
                left,
                right,
                "{name} artifact {:?} differs between --jobs 1 and --jobs 8",
                a.file_name()
            );
        }
    }
}

/// Repeating the same run must also reproduce the same bytes (the RNG
/// streams are functions of the point identity, not of process state).
#[test]
fn artifacts_are_byte_identical_across_runs() {
    let base = Path::new(env!("CARGO_TARGET_TMPDIR")).join("det-rerun");
    let first = run_into("ring_access", 4, &base.join("a"));
    let second = run_into("ring_access", 4, &base.join("b"));
    for (a, b) in first.iter().zip(&second) {
        assert_eq!(fs::read(a).unwrap(), fs::read(b).unwrap());
    }
}

/// Experiments that share characterisations, run back to back through one
/// config (one memo, filled by whichever point asks first) at 4 jobs, must
/// write the same bytes as each run alone through a fresh config at 1 job.
/// table2 and fig5 cover all twelve paper configurations between them;
/// validate and hierarchy ask again for five of them, so a whole shared run
/// characterises exactly twelve workloads.
#[test]
fn artifacts_do_not_depend_on_what_filled_the_memo() {
    let base = Path::new(env!("CARGO_TARGET_TMPDIR")).join("det-memo");
    let names = ["table2", "fig5", "validate", "hierarchy"];
    let shared = SweepConfig::new(REFS).jobs(4).cache(false).out_dir(base.join("shared"));
    let together: Vec<Vec<PathBuf>> = names
        .iter()
        .map(|name| {
            let exp = experiments::find(name).expect("known experiment");
            run_experiment(exp, &shared).artifacts.into_iter().map(|a| a.path).collect()
        })
        .collect();
    assert_eq!(shared.memo().len(), 12, "one characterisation per distinct workload");
    for (name, together) in names.iter().zip(&together) {
        let exp = experiments::find(name).expect("known experiment");
        let fresh = SweepConfig::new(REFS).jobs(1).cache(false).out_dir(base.join(name));
        let alone: Vec<PathBuf> =
            run_experiment(exp, &fresh).artifacts.into_iter().map(|a| a.path).collect();
        assert!(!alone.is_empty(), "{name} wrote no artifacts");
        assert_eq!(alone.len(), together.len(), "{name} artifact count differs");
        for (a, b) in alone.iter().zip(together) {
            assert_eq!(a.file_name(), b.file_name(), "{name} artifact order differs");
            assert_eq!(
                fs::read(a).unwrap(),
                fs::read(b).unwrap(),
                "{name} artifact {:?} differs between a fresh and a shared memo",
                a.file_name()
            );
        }
    }
}
