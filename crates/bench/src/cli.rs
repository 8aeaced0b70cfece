//! Command-line driver behind `ringsim experiments`, which runs the whole
//! experiment registry or a selection of it. Flags:
//!
//! ```text
//! --jobs <n>      worker threads per experiment; 0 auto-detects the
//!                 available cores (the default)
//! --refs <n>      references per processor (default: 60000; bare number works too)
//! --out <dir>     output directory (default: results/)
//! --list          list experiments and exit
//! --only <a,b>    run a comma-separated subset
//! --metrics <p>   fold every run's latency histograms and timelines into one JSON file
//! --no-cache      recompute every point, ignoring cached results
//! --cache-stats   print per-experiment cache hit/miss counts
//! ```
//!
//! Artifacts are byte-identical for any `--jobs` value; the wall-time
//! metrics land in `<out>/<name>.meta.json` twins instead. Point results
//! are cached under `<out>/.cache/` keyed by everything they depend on, so
//! a warm re-run re-executes zero points (see `ringsim-sweep`). `--metrics`
//! and `--sanitize` force the cache off: both need every point to actually
//! run.

use std::process::ExitCode;

use ringsim_sweep::{default_jobs, run_experiment, Experiment, SweepConfig};

use crate::experiments;
use crate::EXPERIMENT_REFS;

const HELP: &str = "\
USAGE:
  ringsim experiments [OPTIONS] [REFS]

OPTIONS:
  --jobs, -j N    worker threads per experiment; 0 auto-detects the
                  available cores (the default)
  --refs N        references per processor (a bare number works too)
  --out DIR       output directory (default: results/)
  --list          list experiments and exit
  --only a,b      run a comma-separated subset
  --metrics PATH  fold every run's latency histograms and timelines
                  into one JSON file (disables the point cache)
  --sanitize      run the coherence sanitizer on every point
  --no-cache      recompute every point, ignoring cached results
  --cache-stats   print per-experiment cache hit/miss counts
  --help, -h      this text
";

/// Parsed experiment-driver options.
#[derive(Debug, Clone)]
pub struct Options {
    /// Worker threads per experiment.
    pub jobs: usize,
    /// References per processor.
    pub refs: u64,
    /// Output directory.
    pub out_dir: String,
    /// List experiments instead of running them.
    pub list: bool,
    /// Restrict to these experiment names (empty = all).
    pub only: Vec<String>,
    /// Force the runtime coherence sanitizer on (release builds included).
    pub sanitize: bool,
    /// Write merged per-class latency histograms here (off when `None`).
    pub metrics: Option<String>,
    /// Ignore cached point results and recompute everything.
    pub no_cache: bool,
    /// Print cache hit/miss counts after each experiment.
    pub cache_stats: bool,
}

impl Default for Options {
    fn default() -> Self {
        Self {
            jobs: default_jobs(),
            refs: EXPERIMENT_REFS,
            out_dir: "results".to_owned(),
            list: false,
            only: Vec::new(),
            sanitize: false,
            metrics: None,
            no_cache: false,
            cache_stats: false,
        }
    }
}

/// Parses driver flags from `std::env::args` form (without the program
/// name). A bare number is accepted as the reference budget for backwards
/// compatibility with the original positional argument.
///
/// # Errors
///
/// Returns a usage message on unknown flags or malformed values.
pub fn parse(args: &[String]) -> Result<Options, String> {
    let mut opts = Options::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--jobs" | "-j" => {
                let v = it.next().ok_or("--jobs needs a value")?;
                let n = v.parse::<usize>().map_err(|_| format!("bad --jobs `{v}`"))?;
                // 0 = auto-detect, matching the flag's documented default.
                opts.jobs = if n == 0 { default_jobs() } else { n };
            }
            "--refs" => {
                let v = it.next().ok_or("--refs needs a value")?;
                opts.refs = v.parse().map_err(|_| format!("bad --refs `{v}`"))?;
            }
            "--out" => {
                opts.out_dir = it.next().ok_or("--out needs a value")?.clone();
            }
            "--list" => opts.list = true,
            "--sanitize" => opts.sanitize = true,
            "--no-cache" => opts.no_cache = true,
            "--cache-stats" => opts.cache_stats = true,
            "--metrics" => {
                opts.metrics = Some(it.next().ok_or("--metrics needs a value")?.clone());
            }
            "--only" => {
                let v = it.next().ok_or("--only needs a value")?;
                opts.only.extend(v.split(',').map(str::to_owned));
            }
            "--help" | "-h" => {
                print!("{HELP}");
                std::process::exit(0);
            }
            other => {
                // Backwards compatibility: a bare number is a refs budget.
                if let Ok(refs) = other.parse::<u64>() {
                    opts.refs = refs;
                } else {
                    return Err(format!(
                        "unknown argument `{other}` (try --jobs N, --refs N, --out DIR, --list, --only a,b, --sanitize, --metrics PATH, --no-cache, --cache-stats)"
                    ));
                }
            }
        }
    }
    if opts.refs == 0 {
        return Err("--refs must be non-zero (the workloads reject empty reference budgets)".into());
    }
    Ok(opts)
}

/// Whether point caching is effective for this invocation: `--no-cache`
/// turns it off explicitly, and `--metrics` / `--sanitize` imply it (cache
/// hits skip the work closure, so the metrics sinks and the sanitizer would
/// see nothing on a warm run).
fn cache_enabled(opts: &Options) -> bool {
    !opts.no_cache && opts.metrics.is_none() && !opts.sanitize
}

fn sweep_config(opts: &Options) -> SweepConfig {
    SweepConfig::new(opts.refs).jobs(opts.jobs).out_dir(&opts.out_dir).cache(cache_enabled(opts))
}

/// Explains an implied `--no-cache` once per invocation.
fn note_cache_implication(opts: &Options) {
    if !opts.no_cache && !cache_enabled(opts) {
        eprintln!(
            "note: point cache disabled ({} needs every point to run)",
            if opts.metrics.is_some() { "--metrics" } else { "--sanitize" }
        );
    }
}

/// Drains the process-wide metrics sink into `opts.metrics` (no-op when the
/// flag was not given). Returns `false` when the write failed.
fn write_metrics(opts: &Options) -> bool {
    let Some(path) = &opts.metrics else { return true };
    let summary = ringsim_obs::take_global_metrics().unwrap_or_default();
    let runs = summary.runs;
    let file =
        ringsim_obs::MetricsFile { summary, timelines: ringsim_obs::take_global_timelines() };
    match std::fs::write(path, file.to_json()) {
        Ok(()) => {
            eprintln!("metrics: {runs} run(s) folded into {path}");
            true
        }
        Err(e) => {
            eprintln!("error: writing {path}: {e}");
            false
        }
    }
}

fn run_one(exp: &'static dyn Experiment, cfg: &SweepConfig, opts: &Options) {
    let report = run_experiment(exp, cfg);
    eprintln!(
        "{}: {} points in {:.0} ms on {} thread{} ({:.1} points/s), meta in {}/{}.meta.json",
        exp.name(),
        report.meta.points,
        report.meta.total_wall_ms,
        opts.jobs,
        if opts.jobs == 1 { "" } else { "s" },
        report.meta.points_per_sec,
        opts.out_dir,
        exp.name(),
    );
    if opts.cache_stats {
        println!(
            "{}: cache: {} hit(s), {} miss(es)",
            exp.name(),
            report.meta.cache_hits,
            report.meta.cache_misses
        );
    }
}

/// Body of the `ringsim experiments` subcommand: parses `args` (already
/// stripped of the program and subcommand names) and runs the selection.
#[must_use]
pub fn run_with(args: &[String]) -> ExitCode {
    let opts = match parse(args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    if opts.sanitize {
        ringsim_core::set_sanitize_mode(ringsim_core::SanitizeMode::On);
    }
    if opts.metrics.is_some() {
        ringsim_obs::set_global_metrics(true);
    }
    if opts.list {
        println!("{:<12}  description", "experiment");
        for e in experiments::ALL {
            println!("{:<12}  {}", e.name(), e.description());
        }
        return ExitCode::SUCCESS;
    }
    note_cache_implication(&opts);
    let selected: Vec<&'static dyn Experiment> = if opts.only.is_empty() {
        experiments::ALL.to_vec()
    } else {
        let mut sel = Vec::new();
        for name in &opts.only {
            match experiments::find(name) {
                Some(e) => sel.push(e),
                None => {
                    eprintln!("error: unknown experiment `{name}` (see --list)");
                    return ExitCode::FAILURE;
                }
            }
        }
        sel
    };
    // One config, so one memo: a workload characterised by one selected
    // experiment is reused by the rest.
    let cfg = sweep_config(&opts);
    for (i, exp) in selected.iter().enumerate() {
        if i > 0 {
            println!();
        }
        run_one(*exp, &cfg, &opts);
    }
    if write_metrics(&opts) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &[&str]) -> Vec<String> {
        s.iter().map(|s| (*s).to_owned()).collect()
    }

    #[test]
    fn parse_defaults_and_flags() {
        let o = parse(&args(&[])).unwrap();
        assert_eq!(o.refs, EXPERIMENT_REFS);
        assert!(!o.list);
        let o =
            parse(&args(&["--jobs", "4", "--refs", "1000", "--out", "tmp", "--only", "fig3,fig4"]))
                .unwrap();
        assert_eq!((o.jobs, o.refs, o.out_dir.as_str()), (4, 1000, "tmp"));
        assert_eq!(o.only, vec!["fig3", "fig4"]);
    }

    #[test]
    fn parse_accepts_bare_refs_for_backwards_compat() {
        assert_eq!(parse(&args(&["30000"])).unwrap().refs, 30_000);
    }

    #[test]
    fn jobs_zero_auto_detects() {
        let o = parse(&args(&["--jobs", "0"])).unwrap();
        assert_eq!(o.jobs, default_jobs());
        assert!(o.jobs >= 1);
    }

    #[test]
    fn parse_cache_flags() {
        let o = parse(&args(&[])).unwrap();
        assert!(!o.no_cache && !o.cache_stats && cache_enabled(&o));
        let o = parse(&args(&["--no-cache", "--cache-stats"])).unwrap();
        assert!(o.no_cache && o.cache_stats && !cache_enabled(&o));
        // Metrics and the sanitizer need every point to run.
        assert!(!cache_enabled(&parse(&args(&["--metrics", "m.json"])).unwrap()));
        assert!(!cache_enabled(&parse(&args(&["--sanitize"])).unwrap()));
    }

    #[test]
    fn parse_rejects_unknown_flags() {
        assert!(parse(&args(&["--bogus"])).is_err());
        assert!(parse(&args(&["--jobs"])).is_err());
        assert!(parse(&args(&["--jobs", "x"])).is_err());
        assert!(parse(&args(&["--refs", "0"])).is_err());
        assert!(parse(&args(&["0"])).is_err());
    }
}
